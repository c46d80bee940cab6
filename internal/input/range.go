package input

import (
	"bytes"
	"io"
)

// Range returns PE pe's lines of the newline-separated input f of size
// bytes, split over p PEs: the lines whose first byte lies in
// [pe·size/p, (pe+1)·size/p). It is the record split of MPI-IO file views
// and Hadoop's line input format: every line belongs to exactly one PE, the
// PEs' lines in PE order are the input's lines in file order, and each PE
// holds about size/p characters.
//
// The range and the byte before it (which tells whether a line starts at
// the range's first byte) are read with one ReadAt into one arena of
// exactly their size, and the lines are cut there in place, into one
// header array sized by bytes.Count: every byte is copied once, by the
// read. A last line that runs past the range is finished by reads of
// doubling size, at most twice the rest of that line, and is the only
// line copied out of the arena. A range that lies inside one line holds no
// line and reads nothing past its end. The final line may lack a trailing
// newline.
//
// PEs read disjoint ranges, so p calls may run concurrently on one f.
func Range(f io.ReaderAt, size int64, pe, p int) ([][]byte, error) {
	lo, hi := rangeStart(size, pe, p), rangeStart(size, pe+1, p)
	if lo == hi {
		return nil, nil
	}
	from := max(lo-1, 0)
	buf := make([]byte, hi-from)
	if err := readAt(f, buf, from); err != nil {
		return nil, err
	}
	body := buf
	if lo > 0 {
		// The first line starts after the first newline at or past lo−1;
		// one ending the range's last byte opens the next PE's line.
		i := bytes.IndexByte(buf[:len(buf)-1], '\n')
		if i < 0 {
			return nil, nil
		}
		body = buf[i+1:]
	}
	n := bytes.Count(body, []byte{'\n'})
	if body[len(body)-1] != '\n' {
		n++ // a last line that the range's end or the input's cuts
	}
	lines := make([][]byte, 0, n)
	for {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			break
		}
		lines = append(lines, body[:i:i])
		body = body[i+1:]
	}
	if len(body) == 0 {
		return lines, nil
	}
	// The last line runs past the range unless the input ends there.
	last := body
	for off, block := hi, int64(1); off < size; off, block = off+block, 2*block {
		block = min(block, size-off)
		last = append(last, make([]byte, block)...) // allocates: body ends the arena
		read := last[len(last)-int(block):]
		if err := readAt(f, read, off); err != nil {
			return nil, err
		}
		if i := bytes.IndexByte(read, '\n'); i >= 0 {
			last = last[:len(last)-len(read)+i]
			break
		}
	}
	return append(lines, last), nil
}

// rangeStart is the first byte of PE k's range.
func rangeStart(size int64, k, p int) int64 { return size * int64(k) / int64(p) }

// readAt fills buf from f at off. The caller keeps within the input's
// size, so a short read means the input shrank under it.
func readAt(f io.ReaderAt, buf []byte, off int64) error {
	n, err := f.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}
