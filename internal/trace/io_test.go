package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
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
	if c.Analyze(AllFlows).TotalWire != back.Analyze(AllFlows).TotalWire {
		t.Fatal("byte totals differ after round trip")
	}
	if len(c.Analyze(AllFlows).SYNTimes) != len(back.Analyze(AllFlows).SYNTimes) {
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
		want  string // in the error: the case's own reason
	}{
		{"empty", "", "empty or unversioned input"},
		{"no-version", "f,0,a,1,b,2,0,n,0\n", "missing cloudbench-trace-v2 header"},
		{"v1-header", "#cloudbench-trace-v1\nf,0,a,1,b,2,0,n,0\n", "missing cloudbench-trace-v2 header"},
		{"bad-type", "#cloudbench-trace-v2\nz,1,2\n", "unknown record type"},
		{"short-flow", "#cloudbench-trace-v2\nf,0,a,1\n", "flow record needs 9 fields"},
		{"bad-int", "#cloudbench-trace-v2\nf,0,a,xx,b,2,0,n,0\n", "invalid syntax"},
		{"bad-slices", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,0,A,100,166,1,0,x,0,0\n", "invalid syntax"},
		{"unknown-flow", "#cloudbench-trace-v2\np,0,5,0,-,0,0,1,0,0,0,0\n", "unknown flow 5"},
		{"short-packet", "#cloudbench-trace-v2\np,0,0\n", "packet record needs 12 fields"},
		{"v1-packet", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,0,A,100,166,1,0\n", "packet record needs 12 fields"},
		{"flow-id-not-index", "#cloudbench-trace-v2\nf,1,a,1,b,2,0,n,0\n", "not its row index"},
		{"udp-flow", "#cloudbench-trace-v2\nf,0,a,1,b,2,1,n,0\n", "is not TCP"},
		{"proto-7", "#cloudbench-trace-v2\nf,0,a,1,b,2,7,n,0\n", "is not TCP"},
		{"dir-9", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,9,A,100,166,1,0,0,0,0\n", "neither up nor down"},
		{"dir-negative", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,-3,A,100,166,1,0,0,0,0\n", "neither up nor down"},
		{"negative-payload", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,0,A,-100,166,1,0,0,0,0\n", "negative byte or segment count"},
		{"negative-wire", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,0,A,100,-166,1,0,0,0,0\n", "negative byte or segment count"},
		{"negative-segments", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,1,A,100,166,-4,0,0,0,0\n", "negative byte or segment count"},
		{"before-epoch", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,-1,0,0,A,100,166,1,0,0,0,0\n", "outside [Unix epoch, FarFuture)"},
		{"at-far-future", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,4102444800000000000,0,0,A,100,166,1,0,0,0,0\n", "outside [Unix epoch, FarFuture)"},
		{"negative-ackwire", "#cloudbench-trace-v2\nf,0,a,1,b,2,0,n,0\np,0,0,1,A,100,166,1,-50,0,0,0\n", "negative byte or segment count"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to say %q", c.name, err, c.want)
		}
	}
}

func TestReadCSVTolerantOfBlanksAndComments(t *testing.T) {
	input := "#cloudbench-trace-v2\n\n# a comment\nf,0,10.0.0.1,4000,5.5.5.5,443,0,s.example,1382486400000000000\n\np,1382486400000000000,0,0,S,0,74,1,0,0,0,0\n"
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
// panic it. Any input it accepts must hold only TCP flows whose ids
// are their indices and only up or down records with non-negative
// counts at instants in [Unix epoch, FarFuture), and must survive a
// write and a re-read unchanged: the same flows and the same records,
// span parameters included. The committed corpus seeds a plain trace,
// a span-bearing one, a file with comments and out-of-order records, a corrupt span, and a file with a foreign protocol, foreign
// directions and negative counts.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, fl := range c.Flows() {
			if fl.ID != FlowID(i) || fl.Key.Proto != TCP {
				t.Fatalf("accepted flow %d: %+v", i, fl)
			}
		}
		for _, p := range c.Packets() {
			if (p.Dir != Upstream && p.Dir != Downstream) ||
				p.Payload < 0 || p.Wire < 0 || p.Segments < 0 || p.AckWire < 0 ||
				p.Time.Before(time.Unix(0, 0)) || !p.Time.Before(FarFuture) {
				t.Fatalf("accepted record %+v", p)
			}
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
