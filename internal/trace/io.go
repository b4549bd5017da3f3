package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Capture serialization: a textual interchange format (CSV with two
// sections) so benchmark runs can dump their traces for offline
// analysis and tooling can reload them — the reproduction's analogue
// of saving pcaps. The format is versioned and round-trips exactly.
//
// v2 packet rows carry the span slicing parameters (slices,
// slice_bytes, slice_gap_ns), so span records survive a dump and
// reload without expansion; plain records write zeros there.

const formatVersion = "cloudbench-trace-v2"

// WriteCSV serializes the capture, span records included.
func (c *Capture) WriteCSV(w io.Writer) error {
	c.flush()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#%s\n", formatVersion)
	fmt.Fprintf(bw, "#flows id,client,cport,server,sport,proto,name,opened_unix_ns\n")
	for _, f := range c.flows {
		fmt.Fprintf(bw, "f,%d,%s,%d,%s,%d,%d,%s,%d\n",
			f.ID, f.Key.ClientAddr, f.Key.ClientPort,
			f.Key.ServerAddr, f.Key.ServerPort, int(f.Key.Proto),
			f.ServerName, f.OpenedAt.UnixNano())
	}
	fmt.Fprintf(bw, "#packets unix_ns,flow,dir,flags,payload,wire,segments,ackwire,slices,slice_bytes,slice_gap_ns\n")
	for _, p := range c.packets {
		fmt.Fprintf(bw, "p,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d\n",
			p.Time.UnixNano(), p.Flow, int(p.Dir), flagString(p.Flags),
			p.Payload, p.Wire, p.Segments, p.AckWire,
			p.Slices, p.SliceBytes, p.SliceGap.Nanoseconds())
	}
	return bw.Flush()
}

func flagString(f Flags) string {
	var b strings.Builder
	if f.SYN {
		b.WriteByte('S')
	}
	if f.ACK {
		b.WriteByte('A')
	}
	if f.FIN {
		b.WriteByte('F')
	}
	if f.RST {
		b.WriteByte('R')
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

func parseFlags(s string) Flags {
	return Flags{
		SYN: strings.ContainsRune(s, 'S'),
		ACK: strings.ContainsRune(s, 'A'),
		FIN: strings.ContainsRune(s, 'F'),
		RST: strings.ContainsRune(s, 'R'),
	}
}

// ReadCSV parses a capture previously produced by WriteCSV. It rejects
// what no capture can hold: a flow row whose id is not its row index,
// a protocol other than TCP, a direction other than up or down, a
// negative payload, wire, segment or ACK-wire count, and a record
// instant before the Unix epoch or at or after FarFuture, which no
// analysis window holds.
func ReadCSV(r io.Reader) (*Capture, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	c := NewCapture()
	line := 0
	sawVersion := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if strings.Contains(text, formatVersion) {
				sawVersion = true
			}
			continue
		}
		if !sawVersion {
			return nil, fmt.Errorf("trace: line %d: missing %s header", line, formatVersion)
		}
		fields := strings.Split(text, ",")
		switch fields[0] {
		case "f":
			if len(fields) != 9 {
				return nil, fmt.Errorf("trace: line %d: flow record needs 9 fields, has %d", line, len(fields))
			}
			id, err0 := strconv.Atoi(fields[1])
			cport, err1 := strconv.Atoi(fields[3])
			sport, err2 := strconv.Atoi(fields[5])
			proto, err3 := strconv.Atoi(fields[6])
			opened, err4 := strconv.ParseInt(fields[8], 10, 64)
			if err := firstErr(err0, err1, err2, err3, err4); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
			if id != len(c.flows) {
				return nil, fmt.Errorf("trace: line %d: flow id %d is not its row index %d", line, id, len(c.flows))
			}
			if Proto(proto) != TCP {
				return nil, fmt.Errorf("trace: line %d: flow protocol %d is not TCP", line, proto)
			}
			c.OpenFlow(FlowKey{
				ClientAddr: fields[2], ClientPort: cport,
				ServerAddr: fields[4], ServerPort: sport,
				Proto: Proto(proto),
			}, fields[7], time.Unix(0, opened).UTC())
		case "p":
			if len(fields) != 12 {
				return nil, fmt.Errorf("trace: line %d: packet record needs 12 fields, has %d", line, len(fields))
			}
			ns, err1 := strconv.ParseInt(fields[1], 10, 64)
			flow, err2 := strconv.Atoi(fields[2])
			dir, err3 := strconv.Atoi(fields[3])
			payload, err4 := strconv.ParseInt(fields[5], 10, 64)
			wire, err5 := strconv.ParseInt(fields[6], 10, 64)
			segs, err6 := strconv.Atoi(fields[7])
			ack, err7 := strconv.ParseInt(fields[8], 10, 64)
			slices, err8 := strconv.Atoi(fields[9])
			sliceBytes, err9 := strconv.ParseInt(fields[10], 10, 64)
			gapNs, err10 := strconv.ParseInt(fields[11], 10, 64)
			if err := firstErr(err1, err2, err3, err4, err5, err6, err7, err8, err9, err10); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
			if flow < 0 || flow >= len(c.flows) {
				return nil, fmt.Errorf("trace: line %d: packet references unknown flow %d", line, flow)
			}
			if Direction(dir) != Upstream && Direction(dir) != Downstream {
				return nil, fmt.Errorf("trace: line %d: direction %d is neither up nor down", line, dir)
			}
			if payload < 0 || wire < 0 || segs < 0 || ack < 0 {
				return nil, fmt.Errorf("trace: line %d: negative byte or segment count", line)
			}
			if ns < 0 || ns >= FarFuture.UnixNano() {
				return nil, fmt.Errorf("trace: line %d: instant %d ns is outside [Unix epoch, FarFuture)", line, ns)
			}
			p := Packet{
				Time: time.Unix(0, ns).UTC(), Flow: FlowID(flow),
				Dir: Direction(dir), Flags: parseFlags(fields[4]),
				Payload: payload, Wire: wire, Segments: segs, AckWire: ack,
			}
			if slices > 1 {
				p.Slices, p.SliceBytes, p.SliceGap = slices, sliceBytes, time.Duration(gapNs)
				if err := validateSpan(p); err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", line, err)
				}
			} else if slices != 0 || sliceBytes != 0 || gapNs != 0 {
				return nil, fmt.Errorf("trace: line %d: plain record carries span fields", line)
			}
			c.Record(p)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawVersion {
		return nil, fmt.Errorf("trace: empty or unversioned input")
	}
	return c, nil
}

// validateSpan checks that a parsed span's aggregate fields are
// exactly what its slicing parameters imply — the invariant every
// analyzer's O(1) folds rely on. Corrupt or hand-edited files fail
// loudly instead of silently mis-attributing bytes.
func validateSpan(p Packet) error {
	last := p.Payload - int64(p.Slices-1)*p.SliceBytes
	if p.SliceBytes <= 0 || last <= 0 || last > p.SliceBytes || p.SliceGap < 0 {
		return fmt.Errorf("invalid span parameters (slices=%d slice_bytes=%d payload=%d gap=%d)",
			p.Slices, p.SliceBytes, p.Payload, p.SliceGap)
	}
	want := Span(p.Time, p.Flow, p.Dir, p.Flags, p.Slices, p.SliceBytes, last, p.SliceGap)
	if p != want {
		return fmt.Errorf("span totals do not match slicing parameters")
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
