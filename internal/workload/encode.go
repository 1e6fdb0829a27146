package workload

import (
	"errors"
	"fmt"
)

// ErrCorrupt is the sentinel wrapped by every trace-decode failure —
// truncation, bad magic, checksum mismatches, length prefixes that
// disagree with the input. The decoder consumes bytes another process
// may have half-written or a disk may have mangled (the trace store loads
// them concurrently with writers), so callers branch on
// errors.Is(err, ErrCorrupt) to quarantine and regenerate instead of
// failing the run.
var ErrCorrupt = errors.New("workload: corrupt trace")

// corruptf wraps ErrCorrupt with context, analogous to fmt.Errorf.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("workload: "+format+": %w", append(args, ErrCorrupt)...)
}
