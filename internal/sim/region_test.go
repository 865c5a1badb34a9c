package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/caliper"
	"repro/internal/critpath"
	"repro/internal/trace"
)

// openPhase opens a phase, in the process's profile when profiled, and
// returns the call that closes it.
type openPhase func(p *Proc, profiled bool, component, name string, class trace.Class) func(bytes int64, attr string) time.Duration

func viaRegion(p *Proc, profiled bool, component, name string, class trace.Class) func(int64, string) time.Duration {
	if profiled {
		return p.Region(component, name, class).End
	}
	return p.Span(component, name, class).End
}

// handHooks is the reference Region replaced: each sink's hook written
// out by hand, in the order every instrumented site used, with the
// profile's own front for the profile.
func handHooks(p *Proc, profiled bool, component, name string, class trace.Class) func(int64, string) time.Duration {
	var ph Phase
	if profiled {
		ph = p.Phase(name)
	}
	p.CritBegin(component, name, class)
	start := p.Now()
	return func(bytes int64, attr string) time.Duration {
		d := p.Now() - start
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: component, Name: name,
			Class: class, Start: start, Dur: d, Bytes: bytes, Attr: attr})
		p.CritEnd()
		if profiled {
			ph.End()
		}
		return d
	}
}

// regionRun is everything a phase recorder can change about a run.
type regionRun struct {
	spans    []trace.Span
	graph    *critpath.Graph
	path     *critpath.CritPath
	profiles []*caliper.Profile
	lengths  []time.Duration
}

// runRegions drives two processes through nested phases, a phase that
// spans a Block/Wake, and a zero-length phase, with every sink on.
func runRegions(t *testing.T, phase openPhase) regionRun {
	t.Helper()
	e := NewEngine(7)
	rec := trace.NewRecorder()
	e.SetRecorder(rec)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	var out regionRun
	consumer := e.Spawn("consumer", func(p *Proc) {
		p.KeepProfile()
		wait := phase(p, true, "workflow", "wait", trace.ClassIdle)
		p.Block()
		out.lengths = append(out.lengths, wait(0, "/f0"))
		work := phase(p, true, "workflow", "analytics", trace.ClassCompute)
		p.Sleep(2 * time.Millisecond)
		out.lengths = append(out.lengths, work(0, ""))
	})
	producer := e.Spawn("producer", func(p *Proc) {
		p.KeepProfile()
		produce := phase(p, true, "workflow", "produce", trace.ClassMovement)
		write := phase(p, false, "dev", "write", trace.ClassDetail)
		p.Sleep(3 * time.Millisecond)
		out.lengths = append(out.lengths, write(4096, "/f0"))
		mark := phase(p, true, "workflow", "mark", trace.ClassDetail)
		out.lengths = append(out.lengths, mark(0, ""))
		p.Sleep(time.Millisecond)
		consumer.Wake()
		out.lengths = append(out.lengths, produce(4096, "/f0"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.spans = rec.Spans()
	out.graph = cp.Finish(e.Now())
	out.path = critpath.Extract(out.graph)
	out.profiles = []*caliper.Profile{producer.Profile(), consumer.Profile()}
	return out
}

// Region and Span record exactly what the hand-written hooks did: the
// same spans, the same critical-path graph and path, the same profiles,
// and the same phase lengths.
func TestRegionMatchesHandHooks(t *testing.T) {
	ref := runRegions(t, handHooks)
	got := runRegions(t, viaRegion)
	if len(ref.spans) != 5 || ref.graph.Unclosed != 0 || ref.profiles[0].Root.Find("produce") == nil {
		t.Fatalf("weak scenario: %d spans, %d unclosed regions", len(ref.spans), ref.graph.Unclosed)
	}
	if !reflect.DeepEqual(got.spans, ref.spans) {
		t.Errorf("spans differ:\n got %+v\nwant %+v", got.spans, ref.spans)
	}
	if !reflect.DeepEqual(got.graph, ref.graph) {
		t.Errorf("critical-path graphs differ:\n got %+v\nwant %+v", got.graph, ref.graph)
	}
	if !reflect.DeepEqual(got.path, ref.path) {
		t.Errorf("critical paths differ:\n got %+v\nwant %+v", got.path, ref.path)
	}
	if !reflect.DeepEqual(got.profiles, ref.profiles) {
		t.Errorf("caliper profiles differ:\n got %+v\nwant %+v", got.profiles, ref.profiles)
	}
	if !reflect.DeepEqual(got.lengths, ref.lengths) {
		t.Errorf("phase lengths %v, want %v", got.lengths, ref.lengths)
	}
}

// Closing a region adds its length to its process's tally by class:
// Movement and Idle regions count, whether opened by Region or Span and
// whether or not the process keeps a profile; other classes and Phases
// do not, and neither does a region still open.
func TestRegionTallyByClass(t *testing.T) {
	for _, keep := range []bool{false, true} {
		e := NewEngine(1)
		p := e.Spawn("p", func(p *Proc) {
			if keep {
				p.KeepProfile()
			}
			move := p.Region("test", "move", trace.ClassMovement)
			detail := p.Span("test", "detail", trace.ClassDetail)
			p.Sleep(time.Millisecond)
			detail.End(0, "")
			p.Sleep(2 * time.Millisecond)
			move.End(0, "")
			wait := p.Span("test", "wait", trace.ClassIdle)
			p.Sleep(4 * time.Millisecond)
			wait.End(0, "")
			for _, class := range []trace.Class{trace.ClassCompute, trace.ClassRecovery, trace.ClassBackpressure} {
				r := p.Region("test", class.String(), class)
				p.Sleep(8 * time.Millisecond)
				r.End(0, "")
			}
			ph := p.Phase("phase")
			p.Sleep(16 * time.Millisecond)
			ph.End()
			p.Span("test", "open", trace.ClassIdle)
			p.Sleep(32 * time.Millisecond)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if m, i := p.Tally(); m != 3*time.Millisecond || i != 4*time.Millisecond {
			t.Errorf("keep profile %v: tally movement %v idle %v, want 3ms and 4ms", keep, m, i)
		}
	}
}
