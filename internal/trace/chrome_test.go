package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
	"time"
)

func TestAppendMicros(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{1, "0.001"},
		{1500, "1.500"},
		{2000, "2"},
		{123456789, "123456.789"},
		{-1, "-0.001"},
		{-500, "-0.500"},
		{-1500, "-1.500"},
		{-2000, "-2"},
		{math.MaxInt64, "9223372036854775.807"},
		{math.MinInt64, "-9223372036854775.808"},
	} {
		got := string(AppendMicros([]byte("x"), c.d))
		if got != "x"+c.want {
			t.Errorf("AppendMicros(%d) = %q, want %q", int64(c.d), got[1:], c.want)
		}
	}
}

// Inputs the Sprintf encoder rendered as invalid JSON — a negative
// fractional time ("-1.-500"), Go escapes for control bytes and invalid
// UTF-8 (\x01, \xff), and bare NaN/Inf counter values — must now parse,
// and valid-UTF-8 strings must decode back to themselves.
func TestWriteChromeValidJSON(t *testing.T) {
	names := []string{
		"ctl\x01\a\v\x7f",                  // control bytes and DEL
		"bad\xffutf8\xe2\x82",              // invalid and truncated UTF-8
		"quote\"back\\slash\n",             // escapes strconv.Quote already wrote as JSON
		"naïve ✓ 🚀",                        // printable runes stay raw
		"\u00ad\u2028\U000f0000\U0010ffff", // non-printable runes, both planes
	}
	var runs []Run
	for _, n := range names {
		runs = append(runs, Run{
			Label: n,
			Spans: []Span{
				{Proc: n, Component: n, Name: n, Start: -1500, Dur: -500, Attr: n},
				{Proc: "p", Name: n, Start: -2000, Bytes: 1},
			},
			Flows: []Flow{{Name: n, ID: 1, Proc: n, At: -1}},
			Counters: []Counter{{Name: n,
				Times:  []time.Duration{-1, 0, 1},
				Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}}},
		})
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			Name string   `json:"name"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Args struct {
				Name  string   `json:"name"`
				Attr  string   `json:"attr"`
				Value *float64 `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	var spans, counters int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if *e.Ts != -1.5 || *e.Dur != -0.5 {
				t.Errorf("span ts/dur = %v/%v, want -1.5/-0.5", *e.Ts, *e.Dur)
			}
		case "C":
			counters++
			if e.Args.Value != nil {
				t.Errorf("non-finite counter value decoded as %v, want null", *e.Args.Value)
			}
		}
	}
	if spans != len(names) || counters != 3*len(names) {
		t.Fatalf("decoded %d spans and %d counter samples, want %d and %d", spans, counters, len(names), 3*len(names))
	}
	// Per run: process_name, thread_name, X span, thread "p", instant, flow.
	for i, n := range names {
		if i == 1 {
			continue // invalid UTF-8 decodes to U+FFFD replacements
		}
		ev := doc.TraceEvents[i*9 : i*9+6]
		for _, got := range []string{ev[0].Args.Name, ev[1].Args.Name, ev[2].Name, ev[2].Args.Attr, ev[4].Name, ev[5].Name} {
			if got != n {
				t.Errorf("decoded %q, want %q", got, n)
			}
		}
	}
}

// TestExportAllocBudget pins the append-based encoder's allocations to
// O(distinct strings): eight times the events over the same procs and
// names must allocate no more than one time.
func TestExportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	build := func(k int) []Run {
		runs := []Run{{Label: "run one"}, {Label: "run two"}}
		for r := range runs {
			for i := 0; i < k; i++ {
				runs[r].Spans = append(runs[r].Spans, synthSpans(60)...)
				runs[r].Flows = append(runs[r].Flows,
					Flow{Name: "/f0", ID: 1, Proc: "producer000", At: 1500, Start: true},
					Flow{Name: "/f0", ID: 1, Proc: "consumer000", At: 2500})
			}
			c := Counter{Name: "core/frames_produced"}
			for i := 0; i < 10*k; i++ {
				c.Times = append(c.Times, time.Duration(i%10)*250*time.Millisecond)
				c.Values = append(c.Values, float64(i%10)/4)
			}
			runs[r].Counters = []Counter{c}
		}
		return runs
	}
	allocs := func(runs []Run) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := WriteChrome(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(build(1)), allocs(build(8))
	if eight > one {
		t.Errorf("WriteChrome: %v allocs for 8x the events, %v for 1x; want no growth", eight, one)
	}
}
