//go:build !dsspoison

package transport

// The aliasing-contract checks of poison_on.go compile to nothing in normal
// builds.

// NoteGive is called by a backend's Give when it takes ownership of buf.
func NoteGive(buf []byte) {}

// NoteHandoff is called when a given buffer leaves the transport's custody:
// popped by its receiver, trimmed from a resend ring, or passed on to the
// wrapped transport by a decorator.
func NoteHandoff(buf []byte) {}

func poisonReleased(b []byte) {}
func poisonPooled(b []byte)   {}
func poisonTaken(b []byte)    {}
