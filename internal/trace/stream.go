package trace

import (
	"bufio"
	"io"
	"strconv"
)

// ChromeStream is the incremental Chrome trace-event writer: the streaming
// counterpart of WriteChrome for runs too large to retain their span vector
// in memory. The document is written front to back — header at creation,
// one process block per StartRun, spans as they are emitted, footer at
// Close — so writer memory stays O(buffer), independent of run length.
//
// Each event is append-encoded into one line buffer the stream reuses, then
// copied into a buffered writer: no per-event formatting allocations, and
// no string is cached — names, categories, attributes and labels are
// escaped straight into the line buffer — so the stream's memory is the two
// buffers plus each run's proc-to-tid table.
//
// WriteChrome is itself built on ChromeStream, so the streamed bytes of a
// run are identical to the buffered export of the same span sequence by
// construction — the property cmd/experiments'
// TestEverySinkReachesEveryExperiment checks end to end, per experiment.
// The one difference is a run its caller kills mid-sweep: the stream keeps
// the block it had started, while buffered collection drops the run
// (internal/experiments' TestTraceStreamKeepsKilledRun).
//
// A stream serializes one run at a time: StartRun opens the next Chrome
// process and returns a streaming Recorder bound to it; the caller must
// finish emitting through that recorder (and call EndRun) before starting
// the next run. Concurrently executing traced runs must not share a stream.
type ChromeStream struct {
	bw    *bufio.Writer
	line  []byte // the event being encoded, reused across events
	first bool   // no event line emitted yet (comma placement)
	runs  int    // runs started; pid = run index + 1, as in WriteChrome
}

// NewChromeStream starts a Chrome trace-event JSON document on w.
func NewChromeStream(w io.Writer) *ChromeStream {
	cs := &ChromeStream{bw: bufio.NewWriter(w), line: make([]byte, 0, 256), first: true}
	cs.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return cs
}

// event starts the next event line in the stream's line buffer: the comma
// separating it from the previous event, then the phase fields (ph, plus bp
// for flow steps, as a JSON fragment) and the pid/tid pair.
func (cs *ChromeStream) event(phase string, pid, tid int) []byte {
	b := cs.line[:0]
	if !cs.first {
		b = append(b, ",\n"...)
	}
	cs.first = false
	b = append(b, `{"ph":`...)
	b = append(b, phase...)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// emit closes the event line and writes it, keeping the grown buffer.
func (cs *ChromeStream) emit(b []byte) {
	b = append(b, '}')
	cs.bw.Write(b)
	cs.line = b
}

// meta emits a process_name or thread_name metadata event.
func (cs *ChromeStream) meta(pid, tid int, kind, name string) {
	b := cs.event(`"M"`, pid, tid)
	b = append(b, `,"name":"`...)
	b = append(b, kind...)
	b = append(b, `","args":{"name":`...)
	b = appendString(b, name)
	cs.emit(append(b, '}'))
}

// StartRun opens the next run as a Chrome process named by label and
// returns a streaming recorder for it: every span emitted through the
// recorder is serialized immediately instead of retained.
func (cs *ChromeStream) StartRun(label string) *Recorder {
	cs.runs++
	cs.meta(cs.runs, 0, "process_name", label)
	return &Recorder{stream: cs, pid: cs.runs, tids: make(map[string]int)}
}

// thread returns proc's Chrome tid in rec's run, emitting its thread-name
// metadata on first appearance — the exact event sequence WriteChrome
// produces for a buffered run.
func (cs *ChromeStream) thread(rec *Recorder, proc string) int {
	tid, ok := rec.tids[proc]
	if !ok {
		tid = len(rec.tids) + 1
		rec.tids[proc] = tid
		cs.meta(rec.pid, tid, "thread_name", proc)
	}
	return tid
}

// span serializes one span of rec's run: a complete event (ph "X"), or an
// instant (ph "i") when it has no duration.
func (cs *ChromeStream) span(rec *Recorder, s Span) {
	tid := cs.thread(rec, s.Proc)
	var b []byte
	if s.Dur == 0 {
		b = cs.event(`"i"`, rec.pid, tid)
		b = append(b, `,"ts":`...)
		b = AppendMicros(b, s.Start)
		b = append(b, `,"s":"t"`...)
	} else {
		b = cs.event(`"X"`, rec.pid, tid)
		b = append(b, `,"ts":`...)
		b = AppendMicros(b, s.Start)
		b = append(b, `,"dur":`...)
		b = AppendMicros(b, s.Dur)
	}
	b = append(b, `,"name":`...)
	b = appendString(b, s.Name)
	b = append(b, `,"cat":"`...)
	b = appendEscaped(b, s.Component)
	b = append(b, ',')
	b = append(b, s.Class.String()...)
	b = append(b, '"')
	if s.Bytes != 0 || s.Attr != "" {
		b = append(b, `,"args":{`...)
		if s.Bytes != 0 {
			b = append(b, `"bytes":`...)
			b = strconv.AppendInt(b, s.Bytes, 10)
			if s.Attr != "" {
				b = append(b, ',')
			}
		}
		if s.Attr != "" {
			b = append(b, `"attr":`...)
			b = appendString(b, s.Attr)
		}
		b = append(b, '}')
	}
	cs.emit(b)
}

// flow serializes one flow event of rec's run, reusing the run's thread
// table (a flow anchored to a proc that never emitted a span still gets
// its thread-name metadata first, exactly like span does).
func (cs *ChromeStream) flow(rec *Recorder, f Flow) {
	tid := cs.thread(rec, f.Proc)
	phase := `"f","bp":"e"`
	if f.Start {
		phase = `"s"`
	}
	b := cs.event(phase, rec.pid, tid)
	b = append(b, `,"ts":`...)
	b = AppendMicros(b, f.At)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, f.ID, 10)
	b = append(b, `,"name":`...)
	b = appendString(b, f.Name)
	cs.emit(append(b, `,"cat":"provenance"`...))
}

// EndRun closes rec's run, emitting its sampled counter tracks (nil for
// none). Runs aborted before EndRun leave a valid document — their partial
// span stream shows the timeline up to the failure.
func (cs *ChromeStream) EndRun(rec *Recorder, counters []Counter) {
	for _, c := range counters {
		for i, t := range c.Times {
			b := cs.event(`"C"`, rec.pid, 0)
			b = append(b, `,"ts":`...)
			b = AppendMicros(b, t)
			b = append(b, `,"name":`...)
			b = appendString(b, c.Name)
			b = append(b, `,"args":{"value":`...)
			b = appendFloat(b, c.Values[i])
			cs.emit(append(b, '}'))
		}
	}
}

// Close terminates the JSON document and flushes the buffer. The stream
// must not be used afterwards.
func (cs *ChromeStream) Close() error {
	cs.bw.WriteString("\n]}\n")
	return cs.bw.Flush()
}
