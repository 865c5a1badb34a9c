package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// The reference Chrome encoder: the fmt.Sprintf event formatter the
// append-based ChromeStream replaced, kept verbatim as the differential
// oracle. Wherever its output is valid JSON, the new encoder must produce
// the same bytes; where it is not (negative fractional times, Go-only string
// escapes, NaN/Inf counters), the new encoder must still produce valid JSON.

func oracleUs(d time.Duration) string {
	ns := int64(d)
	if ns%1000 == 0 {
		return strconv.FormatInt(ns/1000, 10)
	}
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

func oracleQuote(s string) string { return strconv.Quote(s) }

func oracleThread(pid, tid int, proc string) string {
	return fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
		pid, tid, oracleQuote(proc))
}

func oracleSpan(pid, tid int, s Span) string {
	args := ""
	if s.Bytes != 0 {
		args = fmt.Sprintf(",\"args\":{\"bytes\":%d}", s.Bytes)
	}
	if s.Attr != "" {
		if args == "" {
			args = fmt.Sprintf(",\"args\":{\"attr\":%s}", oracleQuote(s.Attr))
		} else {
			args = fmt.Sprintf(",\"args\":{\"bytes\":%d,\"attr\":%s}", s.Bytes, oracleQuote(s.Attr))
		}
	}
	if s.Dur == 0 {
		return fmt.Sprintf("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"cat\":%s%s}",
			pid, tid, oracleUs(s.Start), oracleQuote(s.Name), oracleQuote(s.Component+","+s.Class.String()), args)
	}
	return fmt.Sprintf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":%s%s}",
		pid, tid, oracleUs(s.Start), oracleUs(s.Dur), oracleQuote(s.Name), oracleQuote(s.Component+","+s.Class.String()), args)
}

func oracleFlow(pid, tid int, f Flow) string {
	if f.Start {
		return fmt.Sprintf("{\"ph\":\"s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"id\":%d,\"name\":%s,\"cat\":\"provenance\"}",
			pid, tid, oracleUs(f.At), f.ID, oracleQuote(f.Name))
	}
	return fmt.Sprintf("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"id\":%d,\"name\":%s,\"cat\":\"provenance\"}",
		pid, tid, oracleUs(f.At), f.ID, oracleQuote(f.Name))
}

func oracleCounter(pid int, t time.Duration, name string, v float64) string {
	return fmt.Sprintf("{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%s,\"name\":%s,\"args\":{\"value\":%s}}",
		pid, oracleUs(t), oracleQuote(name), strconv.FormatFloat(v, 'g', -1, 64))
}

// fuzzRun builds the one-run document the fuzz target encodes both ways: a
// run labeled attr with one span, a flow start and step anchored to the
// span's proc, and one counter sample whose value reuses bytes' bit pattern
// (so the corpus reaches NaN, infinities and subnormals).
func fuzzRun(proc, name, component, attr string, start, dur, nbytes int64, class uint8) Run {
	at := time.Duration(start)
	return Run{
		Label: attr,
		Spans: []Span{{Proc: proc, Component: component, Name: name, Class: Class(class),
			Start: at, Dur: time.Duration(dur), Bytes: nbytes, Attr: attr}},
		Flows: []Flow{
			{Name: name, ID: nbytes, Proc: proc, At: at, Start: true},
			{Name: name, ID: nbytes, Proc: proc, At: at + time.Duration(dur)},
		},
		Counters: []Counter{{Name: name, Times: []time.Duration{at},
			Values: []float64{math.Float64frombits(uint64(nbytes))}}},
	}
}

// oracleDoc renders fuzzRun's document with the reference encoder.
func oracleDoc(run Run) []byte {
	s, f, c := run.Spans[0], run.Flows, run.Counters[0]
	events := []string{
		fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
			1, oracleQuote(run.Label)),
		oracleThread(1, 1, s.Proc),
		oracleSpan(1, 1, s),
		oracleFlow(1, 1, f[0]),
		oracleFlow(1, 1, f[1]),
		oracleCounter(1, c.Times[0], c.Name, c.Values[0]),
	}
	return []byte("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" + strings.Join(events, ",\n") + "\n]}\n")
}

// chromeDoc is the decoded shape the fuzz target checks names against.
type chromeDoc struct {
	TraceEvents []struct {
		Ph   string `json:"ph"`
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Args struct {
			Name string `json:"name"`
			Attr string `json:"attr"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// FuzzChromeEvent differentially checks the append-based Chrome encoder
// against the reference Sprintf encoder: byte-equal wherever the reference
// emits valid JSON, valid JSON always, and valid-UTF-8 strings decode back
// to themselves. The committed corpus (testdata/fuzz/FuzzChromeEvent)
// replays the inputs the reference encoder got wrong.
func FuzzChromeEvent(f *testing.F) {
	f.Add("producer000", "write", "ssd", "node0/ssd", int64(1500), int64(2000), int64(4096), uint8(ClassMovement))
	f.Fuzz(func(t *testing.T, proc, name, component, attr string, start, dur, nbytes int64, class uint8) {
		run := fuzzRun(proc, name, component, attr, start, dur, nbytes, class)
		var got bytes.Buffer
		if err := WriteChrome(&got, []Run{run}); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(got.Bytes()) {
			t.Fatalf("invalid JSON:\n%s", got.Bytes())
		}
		if want := oracleDoc(run); json.Valid(want) && !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("diverged from the reference encoder:\n got %s\nwant %s", got.Bytes(), want)
		}
		var doc chromeDoc
		if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		ev := doc.TraceEvents
		if len(ev) != 6 {
			t.Fatalf("decoded %d events, want 6", len(ev))
		}
		check := func(what, got, want string) {
			if utf8.ValidString(want) && got != want {
				t.Errorf("%s decoded as %q, want %q", what, got, want)
			}
		}
		check("label", ev[0].Args.Name, attr)
		check("proc", ev[1].Args.Name, proc)
		check("span name", ev[2].Name, name)
		check("category", ev[2].Cat, component+","+Class(class).String())
		if attr != "" {
			check("attr", ev[2].Args.Attr, attr)
		}
		check("counter name", ev[5].Name, name)
	})
}
