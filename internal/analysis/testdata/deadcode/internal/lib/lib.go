// Package lib holds the cases a dead-code gate that matches names
// instead of resolving types gets wrong.
package lib

import "io"

// Buffer.Bytes has a non-test caller, Run.
type Buffer struct{ b []byte }

func (b *Buffer) Bytes() []byte { return b.b }

// File.Bytes shares Buffer.Bytes's name, but only a test calls it.
type File struct{ Size int }

func (f File) Bytes() []byte { return make([]byte, f.Size) }

// counter.Write has no direct caller: Run reaches it through io.Writer.
type counter struct{ n int }

func (c *counter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func unused() {}

// Run writes a buffer through an interface and returns the count and
// the file size.
func Run() (int, int) {
	var w io.Writer = &counter{}
	n, _ := w.Write((&Buffer{b: []byte("abc")}).Bytes())
	return n, File{Size: 2}.Size
}
