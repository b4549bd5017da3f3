package client

import (
	"strings"
	"testing"

	"repro/internal/chunker"
	"repro/internal/compressor"
)

func TestProfileValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}

	cases := []struct {
		name string
		edit func(*Profile)
		want string // substring of the error; empty for a valid profile
	}{
		{"unknown policy", func(p *Profile) { p.Compression = compressor.Policy(3) }, "compression policy"},
		{"negative policy", func(p *Profile) { p.Compression = compressor.Policy(-1) }, "compression policy"},
		{"unknown chunk mode", func(p *Profile) { p.ChunkMode = ChunkMode(3) }, "chunk mode"},
		{"fixed zero", func(p *Profile) { p.ChunkMode, p.ChunkSize = FixedChunks, 0 }, "fixed chunk size"},
		{"fixed negative", func(p *Profile) { p.ChunkMode, p.ChunkSize = FixedChunks, -4 }, "fixed chunk size"},
		{"fixed one byte", func(p *Profile) { p.ChunkMode, p.ChunkSize = FixedChunks, 1 }, ""},
		{"variable below floor", func(p *Profile) { p.ChunkMode, p.ChunkSize = VariableChunks, chunker.MinAverage-1 }, "content-defined"},
		{"variable at floor", func(p *Profile) { p.ChunkMode, p.ChunkSize = VariableChunks, chunker.MinAverage }, ""},
		{"no chunking ignores size", func(p *Profile) { p.ChunkMode, p.ChunkSize = NoChunking, 0 }, ""},
	}
	for _, c := range cases {
		p := Dropbox()
		c.edit(&p)
		err := p.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestNewRejectsInvalidProfile(t *testing.T) {
	r := newRig(t, Dropbox(), 1)
	p := Dropbox()
	p.Compression = compressor.Policy(7)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "compression policy") {
			t.Fatalf("panic %q, want Validate's message", msg)
		}
	}()
	New(Config{Profile: p, Deploy: r.deploy, Net: r.net,
		Host: r.client.Host, Cap: r.cap, DNS: r.dns, RNG: r.rng})
}
