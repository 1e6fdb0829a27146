package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzTraceDecode throws arbitrary bytes at the trace decoder. It reads
// archive files a disk may have mangled or a foreign tool may have
// written, so the decoder's contract under garbage is total: either a
// valid trace or an error wrapping ErrCorrupt — never a panic, and never
// an allocation sized by an unbacked length prefix. Accepted inputs must
// re-encode to the identical bytes.
func FuzzTraceDecode(f *testing.F) {
	s := validSpec()
	tr, err := s.Generate(2, 9)
	if err != nil {
		f.Fatal(err)
	}
	v2, err := MarshalV2(tr)
	if err != nil {
		f.Fatal(err)
	}
	previous := bytes.Clone(v2) // the previous format's version digit
	previous[7] = '1'
	flipped := bytes.Clone(v2) // a body bit flip only the checksum sees
	flipped[len(flipped)/2] ^= 0x40
	lying := bytes.Clone(v2) // a lying op count behind a valid checksum
	binary.LittleEndian.PutUint64(lying[32:], 1<<30)
	fixV2Checksum(lying)
	f.Add(v2)
	f.Add(previous)
	f.Add(flipped)
	f.Add(v2[:len(v2)/2])
	f.Add(lying)
	f.Add([]byte("CGTRACE2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeV2Bytes(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		redo, err := MarshalV2(tr)
		if err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		if !bytes.Equal(redo, data) {
			t.Fatal("re-encode of an accepted input changed the bytes")
		}
	})
}
