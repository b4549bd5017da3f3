package workload

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// ChangeType classifies a folder event as the sync client sees it.
type ChangeType int

const (
	// Created: a new file appeared.
	Created ChangeType = iota
	// Modified: an existing file's content changed.
	Modified
	// Deleted: a file was removed.
	Deleted
)

// String names the change type.
func (c ChangeType) String() string {
	switch c {
	case Created:
		return "created"
	case Modified:
		return "modified"
	case Deleted:
		return "deleted"
	default:
		return fmt.Sprintf("ChangeType(%d)", int(c))
	}
}

// Change is one observable folder event.
type Change struct {
	Time time.Time
	Path string
	Type ChangeType
}

// File is one file in the synchronized folder. Its content may be a
// lazy descriptor (generated benchmark files), a descriptor with one
// splice (a generated file after one edit) or eager bytes (files the
// workload script writes, or edits again); consumers that only need
// the length use Size and never force materialisation.
type File struct {
	Path    string
	ModTime time.Time
	content Content
}

// Content returns the file's content handle.
func (f *File) Content() Content { return f.content }

// Size returns the file length without materialising lazy content.
func (f *File) Size() int64 { return f.content.Size() }

// Folder is the virtual synchronized directory manipulated by the
// testing application and watched by the client under test. It keeps
// an append-only change journal (the equivalent of inotify events) and
// tombstones for deleted files so the paper's delete-and-restore
// deduplication test (Sect. 4.3 step iv) can bring content back.
type Folder struct {
	files   map[string]*File
	deleted map[string]Content // tombstones: last content of removed files
	journal []Change
}

// NewFolder returns an empty folder.
func NewFolder() *Folder {
	return &Folder{
		files:   make(map[string]*File),
		deleted: make(map[string]Content),
	}
}

// Create adds a new file with eager bytes. It panics if the path
// exists — the workload scripts are deterministic and a collision is a
// scripting bug.
func (f *Folder) Create(at time.Time, path string, data []byte) {
	f.CreateContent(at, path, BytesContent(data))
}

// CreateLazy adds a new file backed by a content descriptor; no bytes
// are generated until a consumer materialises them.
func (f *Folder) CreateLazy(at time.Time, path string, d Descriptor) {
	f.CreateContent(at, path, DescriptorContent(d))
}

// CreateContent adds a new file with the given content handle.
func (f *Folder) CreateContent(at time.Time, path string, c Content) {
	if _, ok := f.files[path]; ok {
		panic(fmt.Sprintf("workload: Create over existing path %q", path))
	}
	f.files[path] = &File{Path: path, content: c, ModTime: at}
	f.log(at, path, Created)
}

// Write replaces the content of an existing file ("the modified file
// replaces its old copy", Sect. 4.4).
func (f *Folder) Write(at time.Time, path string, data []byte) {
	f.replace(at, path, BytesContent(data))
}

// Append adds data at the end of an existing file. A file that holds a
// plain descriptor stays lazy: it becomes spliced content, the
// descriptor plus a copy of data. Any other file is materialised with
// data appended.
func (f *Folder) Append(at time.Time, path string, data []byte) {
	f.InsertAt(at, path, f.mustGet(path).Size(), data)
}

// InsertAt inserts data at the given offset of an existing file,
// shifting the remainder — the "random position" delta-encoding case,
// and at offset 0 the prepend case. Like Append, it splices a copy of
// data into a plain descriptor without materialising it, and makes
// eager bytes of anything else (a second edit included).
func (f *Folder) InsertAt(at time.Time, path string, offset int64, data []byte) {
	file := f.mustGet(path)
	if offset < 0 || offset > file.Size() {
		panic(fmt.Sprintf("workload: InsertAt offset %d outside %q (%d bytes)", offset, path, file.Size()))
	}
	if d, ok := file.content.Descriptor(); ok {
		f.replace(at, path, Content{desc: d, data: slices.Clone(data), off: offset, form: splicedForm})
		return
	}
	// One copy of the old content: materialise it into a buffer of the
	// final size, then open the gap in place.
	buf := file.content.AppendTo(make([]byte, 0, file.Size()+int64(len(data))))
	f.Write(at, path, openSplice(buf, 0, offset, data))
}

// Copy duplicates src to dst (same payload, different name — the
// deduplication test's replica step). Content handles are immutable,
// so the copy shares them: a lazy source stays lazy, and equal
// descriptors keep advertising their equality to cache layers.
func (f *Folder) Copy(at time.Time, src, dst string) {
	file := f.mustGet(src)
	f.CreateContent(at, dst, file.content)
}

// Delete removes a file, keeping a tombstone for Restore.
func (f *Folder) Delete(at time.Time, path string) {
	file := f.mustGet(path)
	f.deleted[path] = file.content
	delete(f.files, path)
	f.log(at, path, Deleted)
}

// Restore brings a previously deleted file back with its old content
// (the user "places the original file back").
func (f *Folder) Restore(at time.Time, path string) {
	c, ok := f.deleted[path]
	if !ok {
		panic(fmt.Sprintf("workload: Restore of never-deleted path %q", path))
	}
	delete(f.deleted, path)
	f.CreateContent(at, path, c)
}

// Get returns a file by path.
func (f *Folder) Get(path string) (*File, bool) {
	file, ok := f.files[path]
	return file, ok
}

// ChangesSince returns the journal entries strictly after t.
func (f *Folder) ChangesSince(t time.Time) []Change {
	// The journal is time-ordered; find the first entry after t.
	i := sort.Search(len(f.journal), func(i int) bool {
		return f.journal[i].Time.After(t)
	})
	return f.journal[i:]
}

// replace swaps in new content for an existing file and logs the
// modification.
func (f *Folder) replace(at time.Time, path string, c Content) {
	file, ok := f.files[path]
	if !ok {
		panic(fmt.Sprintf("workload: Write to missing path %q", path))
	}
	file.content = c
	file.ModTime = at
	f.log(at, path, Modified)
}

func (f *Folder) mustGet(path string) *File {
	file, ok := f.files[path]
	if !ok {
		panic(fmt.Sprintf("workload: missing path %q", path))
	}
	return file
}

func (f *Folder) log(at time.Time, path string, typ ChangeType) {
	if n := len(f.journal); n > 0 && at.Before(f.journal[n-1].Time) {
		panic("workload: change journal must be time-ordered")
	}
	f.journal = append(f.journal, Change{Time: at, Path: path, Type: typ})
}
