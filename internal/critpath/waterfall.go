package critpath

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/trace"
)

// LineageSet is one run's frame lineages tagged with the run's label, the
// unit the waterfall CSV is grouped by.
type LineageSet struct {
	Label  string
	Frames []FrameLineage
}

// WriteWaterfall writes frame provenance as a long-format CSV: one row per
// lineage hop, ordered by run, then frame first appearance, then hop
// recording order — a plotting-ready waterfall. Rows are append-encoded
// into one reused line buffer (times via trace.AppendMicros, the Chrome
// trace's microsecond format) and written through one buffered writer, so
// a row costs no allocation and no write call of its own on w.
func WriteWaterfall(w io.Writer, runs []LineageSet) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("run,frame,hop,proc,start_us,dur_us,bytes\n")
	line := make([]byte, 0, 256)
	for _, set := range runs {
		for _, fl := range set.Frames {
			for _, h := range fl.Hops {
				line = append(line[:0], set.Label...)
				line = append(line, ',')
				line = append(line, fl.Key...)
				line = append(line, ',')
				line = append(line, h.Name...)
				line = append(line, ',')
				line = append(line, h.Proc...)
				line = append(line, ',')
				line = trace.AppendMicros(line, h.Start)
				line = append(line, ',')
				line = trace.AppendMicros(line, h.End-h.Start)
				line = append(line, ',')
				line = strconv.AppendInt(line, h.Bytes, 10)
				line = append(line, '\n')
				bw.Write(line)
			}
		}
	}
	return bw.Flush()
}

// FlowEvents converts frame lineages into Chrome flow events: one flow per
// frame, starting (ph "s") at the frame's first proc-bound hop and
// stepping (ph "f", binding point "e") through each subsequent hop — the
// arrows that stitch a frame's journey across proc tracks in a trace
// viewer. Frames whose lineage touches fewer than two procs' worth of
// hops draw no arrow and are skipped.
func FlowEvents(frames []FrameLineage) []trace.Flow {
	flows := 0
	for _, fl := range frames {
		if _, n := procHops(fl.Hops); n >= 2 {
			flows += n
		}
	}
	if flows == 0 {
		return nil
	}
	out := make([]trace.Flow, 0, flows)
	id := int64(0)
	for _, fl := range frames {
		first, n := procHops(fl.Hops)
		if n < 2 {
			continue
		}
		id++
		start := fl.Hops[first]
		out = append(out, trace.Flow{Name: fl.Key, ID: id, Proc: start.Proc, At: start.End, Start: true})
		for _, h := range fl.Hops[first+1:] {
			if h.Proc == "" {
				continue
			}
			out = append(out, trace.Flow{Name: fl.Key, ID: id, Proc: h.Proc, At: h.Start})
		}
	}
	return out
}

// procHops returns the index of the first proc-bound hop (-1 if none) and
// the number of proc-bound hops: the flow events the lineage draws when
// there are at least two.
func procHops(hops []Hop) (first, n int) {
	first = -1
	for i, h := range hops {
		if h.Proc == "" {
			continue
		}
		if first < 0 {
			first = i
		}
		n++
	}
	return first, n
}
