package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"dss/internal/transport"
)

// frameBytes encodes one wire frame exactly like the writer goroutine.
func frameBytes(tag int, payload []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, tag, uint32(len(payload)), payload); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// goodbyeBytes encodes the goodbye frame.
func goodbyeBytes() []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, 0, lenGoodbye, nil); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// FuzzFrameHeader drives the connection reader with arbitrary bytes. The
// invariants under fuzz: readFrames NEVER panics — every malformed header
// (oversized length, a stream that ends mid-frame) comes back as an error,
// which the read loop turns into an endpoint failure — and it returns nil
// only right after consuming a goodbye header. A panic here would kill the
// reader goroutine of a live run.
func FuzzFrameHeader(f *testing.F) {
	// Well-formed streams, so mutations explore the interesting frontier.
	f.Add(frameBytes(7, []byte("hello")))
	f.Add(append(frameBytes(7, []byte("a")), goodbyeBytes()...))
	f.Add(append(frameBytes(7, []byte("a")), frameBytes(7, []byte("b"))...))
	f.Add(frameBytes(-1, []byte("negative tag")))
	f.Add(frameBytes(3, nil)) // empty payload
	f.Add(goodbyeBytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the stream below the reader's large-payload probe so a header
		// claiming gigabytes dies at the probe read, not at a huge Get.
		if len(data) > 48<<10 {
			data = data[:48<<10]
		}
		e := &Endpoint{rank: 0, p: 2}
		e.boxes = []*transport.Mailbox{transport.NewMailbox(), transport.NewMailbox()}
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		if err := e.readFrames(1, br); err != nil {
			return
		}
		consumed := len(data) - src.Len() - br.Buffered()
		if consumed < headerLen || binary.LittleEndian.Uint32(data[consumed-4:consumed]) != lenGoodbye {
			t.Fatalf("readFrames returned nil after %d bytes without a goodbye header", consumed)
		}
	})
}
