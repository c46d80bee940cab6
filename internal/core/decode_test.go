package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dss/internal/wire"
)

// TestDecodersRejectHugeCounts feeds the count-prefixed decoders of
// network input a 10-byte message whose declared count no message that
// short can hold. Counts whose byte size wraps uint64 (2^61 × 8, 2^62 × 4)
// used to pass the size check and die in make; hQuick's own decoder did not
// check at all (it decodes with DecodeRun now). Each must return an error —
// and must not panic or allocate by the declared count. (The fixed-width
// decoder is one function now; its 8- and 4-byte cases keep the labels they
// had as two.)
func TestDecodersRejectHugeCounts(t *testing.T) {
	decoders := []struct {
		name   string
		decode func(msg []byte) error
	}{
		{"DecodeUint64sFixed", func(msg []byte) error { _, err := wire.AppendDecodeUintsFixed(nil, msg, 8); return err }},
		{"DecodeUint32sFixed", func(msg []byte) error { _, err := wire.AppendDecodeUintsFixed(nil, msg, 4); return err }},
		{"DecodeRun", func(msg []byte) error { _, _, _, err := wire.DecodeRun(wire.RunSats, msg); return err }},
	}
	for _, cnt := range []uint64{1 << 36, 1 << 61, 1<<61 + 1, 1 << 62, math.MaxUint64} {
		msg := binary.AppendUvarint(nil, cnt)
		for len(msg) < 10 {
			msg = append(msg, 0)
		}
		for _, d := range decoders {
			t.Run(fmt.Sprintf("%s/%d", d.name, cnt), func(t *testing.T) {
				if err := d.decode(msg); err == nil {
					t.Fatalf("a %d-byte message declaring %d values decoded without error", len(msg), cnt)
				}
			})
		}
	}
}
