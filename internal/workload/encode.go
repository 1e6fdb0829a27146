package workload

import (
	"errors"
	"fmt"
)

// ErrCorrupt is the sentinel wrapped by every trace-decode failure —
// truncation, bad magic, checksum mismatches, length prefixes that
// disagree with the input. The decoder reads archive files a disk may
// have mangled or a foreign tool may have written, so callers branch on
// errors.Is(err, ErrCorrupt) to tell a bad file from other failures.
var ErrCorrupt = errors.New("workload: corrupt trace")

// corruptf wraps ErrCorrupt with context, analogous to fmt.Errorf.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("workload: "+format+": %w", append(args, ErrCorrupt)...)
}
