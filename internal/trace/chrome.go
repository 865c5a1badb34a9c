package trace

import (
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// Run is one traced workflow run: a label (config + repetition), its span
// stream, and optional sampled counter tracks (utilization curves from
// internal/metrics). WriteChrome renders each run as one Chrome trace
// process.
type Run struct {
	Label    string
	Spans    []Span
	Counters []Counter
	// Flows are per-frame provenance arrows (internal/critpath lineages)
	// stitched across proc tracks; empty unless the run recorded a
	// dependency graph.
	Flows []Flow
}

// Flow is one Chrome flow event: the start (ph "s") or a step (ph "f",
// binding point "e") of a named arrow with a shared ID, anchored to a proc
// track at a virtual time.
type Flow struct {
	Name  string
	ID    int64
	Proc  string
	At    time.Duration
	Start bool
}

// Counter is one sampled counter track: a value per virtual sample time.
// Perfetto renders counter tracks as line charts under the span rows.
type Counter struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// WriteChrome serializes traced runs in the Chrome trace-event JSON format
// (the "JSON Object Format" with a traceEvents array), loadable in
// Perfetto and chrome://tracing. Each run becomes one process (pid = run
// index + 1) named by its label; each simulated proc becomes one thread
// (tid = order of first appearance). Spans are complete events (ph "X")
// with ts/dur in virtual microseconds at nanosecond resolution; zero-length
// spans become instant events (ph "i").
//
// The output is written with a fixed field order and fixed number
// formatting, so a deterministic span stream serializes to deterministic
// bytes — the property the -j1 vs -j8 trace identity check relies on. It is
// valid JSON for any input: times keep one leading sign, strings are
// JSON-escaped (invalid UTF-8 becomes U+FFFD) and non-finite counter values
// render as null. It is a thin loop over ChromeStream — buffered, with each
// event append-encoded into one reused line buffer and no strings cached —
// so buffered and streamed exports of the same runs are byte-identical by
// construction.
func WriteChrome(w io.Writer, runs []Run) error {
	cs := NewChromeStream(w)
	for _, run := range runs {
		rec := cs.StartRun(run.Label)
		for _, s := range run.Spans {
			cs.span(rec, s)
		}
		cs.EndRun(rec, run.Flows, run.Counters)
	}
	return cs.Close()
}

// AppendMicros appends a virtual duration as microseconds at nanosecond
// resolution: an integer when whole, otherwise exactly three fractional
// digits, with one leading sign for negative durations. Fixed formatting
// keeps the serialized trace and the waterfall CSV byte-stable, and every
// rendering is a valid JSON number.
func AppendMicros(dst []byte, d time.Duration) []byte {
	u := uint64(d)
	if d < 0 {
		dst = append(dst, '-')
		u = -u // two's complement magnitude; exact for math.MinInt64 too
	}
	dst = strconv.AppendUint(dst, u/1000, 10)
	if frac := u % 1000; frac != 0 {
		dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return dst
}

// appendFloat appends a counter value with strconv's shortest round-trip
// formatting. JSON has no NaN or infinity, so non-finite values render as
// null (the rendering JavaScript's JSON.stringify uses).
func appendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendString appends s as a quoted JSON string.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends the JSON-escaped body of s, without quotes. It
// produces exactly strconv.Quote's bytes wherever those are valid JSON —
// printable runes raw, \" \\ \b \f \n \r \t, and \uXXXX for the other
// non-printable runes below U+10000 — and replaces the Go-only forms:
// other control bytes and DEL become \u00XX, runes above U+FFFF become a
// UTF-16 surrogate pair, and each byte of invalid UTF-8 becomes \ufffd (the
// replacement encoding/json makes when decoding such input).
func appendEscaped(dst []byte, s string) []byte {
	done := 0 // s[:done] is already in dst; runs needing no escape copy at once
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < 0x7f && c != '"' && c != '\\' {
			i++
			continue
		}
		r, w := rune(c), 1
		if c >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
			if w > 1 && strconv.IsPrint(r) {
				i += w
				continue
			}
		}
		dst = append(dst, s[done:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			// Other control bytes, DEL, non-printable runes, and invalid
			// UTF-8 (decoded as utf8.RuneError, one byte at a time).
			if r < 0x10000 {
				dst = appendU4(dst, r)
			} else {
				r1, r2 := utf16.EncodeRune(r)
				dst = appendU4(appendU4(dst, r1), r2)
			}
		}
		i += w
		done = i
	}
	return append(dst, s[done:]...)
}

// appendU4 appends a \uXXXX escape with lowercase hex digits, as
// strconv.Quote writes them.
func appendU4(dst []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(dst, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
}
