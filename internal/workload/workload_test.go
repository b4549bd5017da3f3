package workload

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

var t0 = time.Date(2013, 10, 23, 0, 0, 0, 0, time.UTC)

func at(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

func TestGenerateSizesExact(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, kind := range []Kind{Text, Binary, FakeJPEG, PixelImage} {
		for _, size := range []int64{0, 1, 10, 1000, 100_000} {
			data := Generate(rng.Fork(int64(kind)), kind, size)
			if int64(len(data)) != size {
				t.Fatalf("%v size %d produced %d bytes", kind, size, len(data))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(sim.NewRNG(42), Text, 10_000)
	b := Generate(sim.NewRNG(42), Text, 10_000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different content")
	}
}

func TestTextIsDictionaryWords(t *testing.T) {
	data := Generate(sim.NewRNG(1), Text, 5000)
	for _, w := range bytes.Fields(data) {
		found := false
		for _, dw := range dictionary {
			if string(w) == dw {
				found = true
				break
			}
		}
		if !found {
			// The final word may be truncated by the exact-size cut.
			if !bytes.HasSuffix(data, w) {
				t.Fatalf("non-dictionary word %q", w)
			}
		}
	}
}

func TestFakeJPEGHeader(t *testing.T) {
	data := Generate(sim.NewRNG(1), FakeJPEG, 10_000)
	if data[0] != 0xFF || data[1] != 0xD8 || data[2] != 0xFF {
		t.Fatal("fake JPEG missing SOI marker")
	}
	// Body is text, not JPEG entropy-coded data.
	if !bytes.Contains(data, []byte("the")) && !bytes.Contains(data, []byte("cloud")) {
		t.Fatal("fake JPEG body does not look like text")
	}
}

func TestPixelImageHeader(t *testing.T) {
	data := Generate(sim.NewRNG(1), PixelImage, 10_000)
	if data[0] != 'B' || data[1] != 'M' {
		t.Fatal("pixel image missing BM magic")
	}
}

func TestKindStringsAndExt(t *testing.T) {
	if Text.String() != "text" || Binary.Ext() != ".bin" || FakeJPEG.Ext() != ".jpg" {
		t.Fatal("kind metadata")
	}
}

func TestFolderCreateWriteJournal(t *testing.T) {
	f := NewFolder()
	f.Create(at(0), "a.bin", []byte("v1"))
	f.Write(at(1), "a.bin", []byte("v2"))
	file, ok := f.Get("a.bin")
	if !ok || string(file.Content().Bytes()) != "v2" || !file.ModTime.Equal(at(1)) {
		t.Fatalf("file state: %+v", file)
	}
	j := f.journal
	if len(j) != 2 || j[0].Type != Created || j[1].Type != Modified {
		t.Fatalf("journal: %+v", j)
	}
}

func TestFolderAppendAndInsert(t *testing.T) {
	f := NewFolder()
	f.Create(at(0), "a.bin", []byte("hello"))
	f.Append(at(1), "a.bin", []byte(" world"))
	file, _ := f.Get("a.bin")
	if string(file.Content().Bytes()) != "hello world" {
		t.Fatalf("append: %q", file.Content().Bytes())
	}
	f.InsertAt(at(2), "a.bin", 5, []byte(","))
	file, _ = f.Get("a.bin")
	if string(file.Content().Bytes()) != "hello, world" {
		t.Fatalf("insert: %q", file.Content().Bytes())
	}
	// Boundary offsets.
	f.InsertAt(at(3), "a.bin", 0, []byte(">"))
	f.InsertAt(at(4), "a.bin", int64(len(">hello, world")), []byte("<"))
	file, _ = f.Get("a.bin")
	if string(file.Content().Bytes()) != ">hello, world<" {
		t.Fatalf("boundary insert: %q", file.Content().Bytes())
	}
}

// TestFolderInsertAtMatchesSplice pins InsertAt against a naive
// three-part splice, for lazy and eager content at the first, a middle
// and the past-the-end offset. A plain descriptor must come out
// spliced (still lazy, no descriptor of its own), eager content eager;
// the edit must leave the replaced eager content untouched, and the
// file must not alias the caller's insert. A second edit of spliced
// content makes it eager.
func TestFolderInsertAtMatchesSplice(t *testing.T) {
	const size = 64 << 10
	d := Describe(sim.NewRNG(5), Binary, size)
	for _, lazy := range []bool{true, false} {
		for _, off := range []int64{0, size / 3, size} {
			insert := Generate(sim.NewRNG(6), Binary, 3000)
			f := NewFolder()
			old := DescriptorContent(d).Bytes()
			if lazy {
				f.CreateLazy(at(0), "x", d)
			} else {
				f.Create(at(0), "x", old)
			}
			f.InsertAt(at(1), "x", off, insert)
			fresh := DescriptorContent(d).Bytes()
			want := slices.Concat(fresh[:off], insert, fresh[off:])
			clear(insert)
			file, _ := f.Get("x")
			if got := file.Content().Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("lazy=%v off=%d: InsertAt differs from splice (len %d, want %d)", lazy, off, len(got), len(want))
			}
			if _, plain := file.Content().Descriptor(); file.Content().Lazy() != lazy || plain {
				t.Fatalf("lazy=%v off=%d: edited content Lazy() = %v, plain descriptor %v", lazy, off, file.Content().Lazy(), plain)
			}
			if !bytes.Equal(old, fresh) {
				t.Fatalf("lazy=%v off=%d: InsertAt modified the replaced content", lazy, off)
			}

			f.Append(at(2), "x", []byte("again"))
			if file, _ = f.Get("x"); file.Content().Lazy() || !bytes.Equal(file.Content().Bytes(), append(want, "again"...)) {
				t.Fatalf("lazy=%v off=%d: second edit lazy=%v or wrong bytes", lazy, off, file.Content().Lazy())
			}
		}
	}
}

func TestFolderCopySharesImmutableContent(t *testing.T) {
	f := NewFolder()
	f.Create(at(0), "orig", []byte("payload"))
	f.Copy(at(1), "orig", "copy")
	c, _ := f.Get("copy")
	o, _ := f.Get("orig")
	if !bytes.Equal(c.Content().Bytes(), o.Content().Bytes()) {
		t.Fatal("copy content differs from source")
	}
	// A copied lazy file stays lazy: descriptors are immutable, so the
	// copy shares the recipe and keeps advertising content identity.
	f.CreateLazy(at(2), "lazy", Describe(sim.NewRNG(9), Binary, 1000))
	f.Copy(at(3), "lazy", "lazy-copy")
	lc, _ := f.Get("lazy-copy")
	if !lc.Content().Lazy() {
		t.Fatal("copying a lazy file materialised it")
	}
	ld, _ := lc.Content().Descriptor()
	sd, _ := mustFile(f, "lazy").Content().Descriptor()
	if ld != sd {
		t.Fatal("copied descriptor differs")
	}
	if !bytes.Equal(lc.Content().Bytes(), mustFile(f, "lazy").Content().Bytes()) {
		t.Fatal("lazy copy materialises differently")
	}
}

func mustFile(f *Folder, path string) *File {
	file, ok := f.Get(path)
	if !ok {
		panic("missing " + path)
	}
	return file
}

func TestFolderDeleteRestore(t *testing.T) {
	// The dedup test's step iv: content must come back identical.
	f := NewFolder()
	payload := []byte("original payload")
	f.Create(at(0), "a", payload)
	f.Delete(at(1), "a")
	if _, ok := f.Get("a"); ok {
		t.Fatal("file still present after delete")
	}
	f.Restore(at(2), "a")
	file, ok := f.Get("a")
	if !ok || !bytes.Equal(file.Content().Bytes(), payload) {
		t.Fatal("restore did not bring identical content back")
	}
	types := []ChangeType{Created, Deleted, Created}
	for i, c := range f.journal {
		if c.Type != types[i] {
			t.Fatalf("journal[%d] = %v", i, c.Type)
		}
	}
}

func TestFolderPanicsOnMisuse(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Folder)
	}{
		{"create-dup", func(f *Folder) { f.Create(at(0), "x", nil); f.Create(at(1), "x", nil) }},
		{"write-missing", func(f *Folder) { f.Write(at(0), "nope", nil) }},
		{"restore-never-deleted", func(f *Folder) { f.Restore(at(0), "nope") }},
		{"insert-out-of-range", func(f *Folder) { f.Create(at(0), "x", []byte("ab")); f.InsertAt(at(1), "x", 5, nil) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn(NewFolder())
		}()
	}
}

func TestChangesSince(t *testing.T) {
	f := NewFolder()
	f.Create(at(0), "a", nil)
	f.Create(at(10), "b", nil)
	f.Create(at(20), "c", nil)
	got := f.ChangesSince(at(10))
	if len(got) != 1 || got[0].Path != "c" {
		t.Fatalf("ChangesSince = %+v", got)
	}
	if len(f.ChangesSince(at(-1))) != 3 {
		t.Fatal("ChangesSince before all events")
	}
}

func TestBatchMaterialize(t *testing.T) {
	f := NewFolder()
	b := Batch{Count: 10, Size: 10_000, Kind: Binary}
	paths := b.Materialize(f, sim.NewRNG(1), at(0), "set1")
	if created := f.ChangesSince(at(-1)); len(paths) != 10 || len(created) != 10 {
		t.Fatalf("materialized %d paths, %d files", len(paths), len(created))
	}
	for _, path := range paths {
		if file, ok := f.Get(path); !ok || file.Size() != b.Size {
			t.Fatalf("%s missing or not %d bytes", path, b.Size)
		}
	}
	// Files must differ from one another (independent RNG forks).
	a, _ := f.Get(paths[0])
	c, _ := f.Get(paths[1])
	if bytes.Equal(a.Content().Bytes(), c.Content().Bytes()) {
		t.Fatal("batch files are identical")
	}
}

// TestBatchMaterializeDescribesForks pins Materialize's seed-only
// naming: file i's descriptor is exactly Describe(rng.Fork(i), ...),
// for a plain root and for its antithetic twin.
func TestBatchMaterializeDescribesForks(t *testing.T) {
	b := Batch{Count: 12, Size: 3_000, Kind: FakeJPEG}
	for anti, root := range []*sim.RNG{sim.NewRNG(31), sim.NewAntitheticRNG(31)} {
		f := NewFolder()
		for i, path := range b.Materialize(f, root, at(0), "d") {
			file, _ := f.Get(path)
			got, lazy := file.Content().Descriptor()
			if want := Describe(root.Fork(int64(i)), b.Kind, b.Size); !lazy || got != want {
				t.Fatalf("antithetic=%v file %d: descriptor %v (lazy %v), want %v", anti == 1, i, got, lazy, want)
			}
		}
	}
}

func TestBatchFileNamesMatchSprintf(t *testing.T) {
	for _, kind := range Kinds {
		for _, prefix := range []string{"", "set1", "bench/sub"} {
			for i := 0; i <= 12_000; i++ {
				want := fmt.Sprintf("%s/file%04d%s", prefix, i, kind.Ext())
				if got := string(appendFileName(nil, prefix, i, kind.Ext())); got != want {
					t.Fatalf("file name %d = %q, want %q", i, got, want)
				}
			}
		}
	}
	paths := Batch{Count: 3, Size: 1, Kind: Text}.Materialize(NewFolder(), sim.NewRNG(1), at(0), "set7")
	if want := []string{"set7/file0000.txt", "set7/file0001.txt", "set7/file0002.txt"}; !slices.Equal(paths, want) {
		t.Fatalf("Materialize paths = %q, want %q", paths, want)
	}
}

func TestBatchValidate(t *testing.T) {
	cases := []struct {
		b  Batch
		ok bool
	}{
		{Batch{Count: 1, Size: 0, Kind: Binary}, true},
		{Batch{Count: 100, Size: 10_000, Kind: Text}, true},
		{Batch{Count: 1, Size: 1, Kind: PixelImage}, true},
		{Batch{Count: 0, Size: 10, Kind: Binary}, false},
		{Batch{Count: -3, Size: 10, Kind: Binary}, false},
		{Batch{Count: 1, Size: -5, Kind: Binary}, false},
		{Batch{Count: 1, Size: 10, Kind: Kind(-1)}, false},
		{Batch{Count: 1, Size: 10, Kind: PixelImage + 1}, false},
		{Batch{Count: 2, Size: math.MaxInt64 / 2, Kind: Binary}, true},
		{Batch{Count: 3, Size: 1 << 62, Kind: Binary}, false},
		{Batch{Count: math.MaxInt, Size: 2, Kind: Binary}, false},
		{Batch{Count: math.MaxInt, Size: 1, Kind: Binary}, true},
	}
	for _, c := range cases {
		if err := c.b.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v.Validate() = %v, want ok=%v", c.b, err, c.ok)
		}
	}
}

func TestBatchLabels(t *testing.T) {
	cases := []struct {
		b    Batch
		want string
	}{
		{Batch{Count: 1, Size: 100_000, Kind: Binary}, "1x100kB"},
		{Batch{Count: 1, Size: 1 << 20, Kind: Binary}, "1x1MB"},
		{Batch{Count: 100, Size: 10_000, Kind: Binary}, "100x10kB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
}

func TestStandardBenchmarksMatchPaper(t *testing.T) {
	bs := StandardBenchmarks(Binary)
	want := []string{"1x100kB", "1x1MB", "10x100kB", "100x10kB"}
	if len(bs) != len(want) {
		t.Fatalf("len = %d", len(bs))
	}
	for i, b := range bs {
		if b.String() != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, b, want[i])
		}
	}
}

func TestBundlingSetsSameTotal(t *testing.T) {
	sets := BundlingSets(1_000_000, Binary)
	for _, s := range sets {
		if s.Total() != 1_000_000 {
			t.Fatalf("set %s total = %d", s, s.Total())
		}
	}
	if sets[3].Count != 1000 {
		t.Fatalf("last set count = %d", sets[3].Count)
	}
}
