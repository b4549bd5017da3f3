package compressor

import (
	"bytes"
	"compress/flate"
	"io"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// deflateLen is the length of a real level-6 DEFLATE stream of data,
// checked to decompress back to data: the oracle the counted sizes
// must equal.
func deflateLen(t testing.TB, data []byte) int64 {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := int64(buf.Len())
	back, err := io.ReadAll(flate.NewReader(&buf))
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("DEFLATE round trip failed: %v", err)
	}
	return n
}

func TestNonePassthrough(t *testing.T) {
	data := []byte("raw bytes")
	if got := TransmitSize(None, data); got != int64(len(data)) {
		t.Fatalf("None transmits %d bytes of %d", got, len(data))
	}
}

func TestAlwaysCompressesText(t *testing.T) {
	rng := sim.NewRNG(1)
	text := workload.Generate(rng, workload.Text, 100_000)
	got := TransmitSize(Always, text)
	if want := deflateLen(t, text); got != want {
		t.Fatalf("TransmitSize = %d, real DEFLATE stream is %d bytes", got, want)
	}
	if ratio := float64(len(text)) / float64(got); ratio < 2.5 {
		t.Fatalf("text compression ratio %.2f, want >= 2.5", ratio)
	}
}

func TestAlwaysOnRandomGrows(t *testing.T) {
	rng := sim.NewRNG(2)
	random := workload.Generate(rng, workload.Binary, 100_000)
	got := TransmitSize(Always, random)
	if got <= int64(len(random)) {
		t.Fatalf("random data shrank: %d -> %d", len(random), got)
	}
	// Flate's stored-block overhead is small.
	if got > int64(len(random)+len(random)/50) {
		t.Fatalf("overhead too large: %d -> %d", len(random), got)
	}
}

func TestSmartSkipsRealJPEGHeader(t *testing.T) {
	rng := sim.NewRNG(3)
	fake := workload.Generate(rng, workload.FakeJPEG, 100_000)
	// Smart trusts the header and skips — the Fig. 5c observation:
	// Google Drive does NOT compress fake JPEGs.
	if got := TransmitSize(Smart, fake); got != int64(len(fake)) {
		t.Fatalf("Smart compressed a JPEG-headed file: %d -> %d", len(fake), got)
	}
	// Always compresses it anyway (Dropbox) and wins, because the
	// body is text.
	if got := TransmitSize(Always, fake); got >= int64(len(fake)) {
		t.Fatalf("Always on fake JPEG: %d -> %d", len(fake), got)
	}
}

func TestSmartCompressesText(t *testing.T) {
	rng := sim.NewRNG(4)
	text := workload.Generate(rng, workload.Text, 50_000)
	if got := TransmitSize(Smart, text); got >= int64(len(text)) {
		t.Fatalf("Smart on text: %d -> %d", len(text), got)
	}
}

func TestLooksCompressedFormats(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want bool
	}{
		{"jpeg", []byte{0xFF, 0xD8, 0xFF, 0xE0}, true},
		{"png", []byte{0x89, 'P', 'N', 'G'}, true},
		{"gzip", []byte{0x1F, 0x8B, 8, 0}, true},
		{"zip", []byte{'P', 'K', 3, 4}, true},
		{"bzip2", []byte{'B', 'Z', 'h', '9'}, true},
		{"ogg", []byte("OggS...."), true},
		{"mp4", []byte{0, 0, 0, 24, 'f', 't', 'y', 'p', 'i', 's', 'o', 'm'}, true},
		{"text", []byte("hello world"), false},
		{"short", []byte{1, 2}, false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		if got := LooksCompressed(c.data); got != c.want {
			t.Errorf("%s: LooksCompressed = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if None.String() != "no" || Always.String() != "always" || Smart.String() != "smart" {
		t.Fatal("policy names must match Table 1 vocabulary")
	}
}

func TestTransmitSizeUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TransmitSize(Policy(42), []byte("x"))
}
