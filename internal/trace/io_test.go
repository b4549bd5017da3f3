package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	c := buildCapture()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Flows(), back.Flows()) {
		t.Fatalf("flows differ:\n%v\n%v", c.Flows(), back.Flows())
	}
	if !reflect.DeepEqual(c.Packets(), back.Packets()) {
		t.Fatalf("packets differ")
	}
	// Analyzers agree on the reloaded capture.
	if c.TotalWireBytes(AllFlows) != back.TotalWireBytes(AllFlows) {
		t.Fatal("byte totals differ after round trip")
	}
	if len(c.SYNTimes(AllFlows)) != len(back.SYNTimes(AllFlows)) {
		t.Fatal("SYN counts differ after round trip")
	}
}

func TestCSVFlagsRoundTrip(t *testing.T) {
	cases := []Flags{
		{}, {SYN: true}, {SYN: true, ACK: true}, {FIN: true, ACK: true}, {RST: true},
		{SYN: true, ACK: true, FIN: true, RST: true},
	}
	for _, f := range cases {
		if got := parseFlags(flagString(f)); got != f {
			t.Fatalf("flags %+v -> %q -> %+v", f, flagString(f), got)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"no-version", "f,0,a,1,b,2,0,n,0\n"},
		{"bad-type", "#cloudbench-trace-v1\nz,1,2\n"},
		{"short-flow", "#cloudbench-trace-v1\nf,0,a,1\n"},
		{"bad-int", "#cloudbench-trace-v1\nf,0,a,xx,b,2,0,n,0\n"},
		{"unknown-flow", "#cloudbench-trace-v1\np,0,5,0,-,0,0,1,0\n"},
		{"short-packet", "#cloudbench-trace-v1\np,0,0\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestReadCSVTolerantOfBlanksAndComments(t *testing.T) {
	input := "#cloudbench-trace-v1\n\n# a comment\nf,0,10.0.0.1,4000,5.5.5.5,443,0,s.example,1382486400000000000\n\np,1382486400000000000,0,0,S,0,74,1,0\n"
	c, err := ReadCSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFlows() != 1 || c.Len() != 1 {
		t.Fatalf("parsed %d flows, %d packets", c.NumFlows(), c.Len())
	}
	if !c.Packets()[0].Flags.SYN {
		t.Fatal("flags lost")
	}
}

// FuzzReadCSV feeds arbitrary text to the trace reader. No input may
// panic it, and any input it accepts must survive a write and a
// re-read unchanged: the same flows and the same records, span
// parameters included. The committed corpus seeds a plain trace, a
// span-bearing one, a v1 file with comments and out-of-order records,
// and a corrupt span.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written capture: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(c.Flows(), back.Flows()) {
			t.Fatalf("flows differ after round trip:\n%v\n%v", c.Flows(), back.Flows())
		}
		if !reflect.DeepEqual(c.Packets(), back.Packets()) {
			t.Fatalf("records differ after round trip:\n%v\n%v", c.Packets(), back.Packets())
		}
	})
}
