package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, and folds its samples two
// ways. The fold rules are documented in README.md ("CPU profile folds").

// stack is one profile sample: its function names from the leaf outward
// (inlined frames expanded, innermost first) and its sample count.
type stack struct {
	funcs []string
	count int64
}

// parseProfile decodes a gzipped profile.proto into its sample stacks.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walkFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			var values []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					values, err = appendVarints(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Profile.function
			var id, name uint64
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v carries a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped; profile.proto uses none of interest.
func walkFields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(data) < width {
				return errors.New("truncated fixed field")
			}
			data = data[width:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (one
// value v) or packed (the bytes b).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// layers are the repro/internal packages the layer fold names; samples whose
// innermost repo frame lies in another internal package fold into
// other_internal, samples with no repro/internal frame into unattributed.
var layers = []string{"sim", "cluster", "kvs", "dyad", "xfs", "lustre", "core",
	"experiments", "trace", "metrics", "critpath", "faults", "capacity"}

// Leaf kinds of the second fold.
const (
	kindSched = "sched"
	kindGC    = "gc"
	kindOther = "other"
)

// gcMarks and schedMarks classify a runtime leaf by substring of its name
// (after the "runtime." prefix). gcMarks are tried first.
var (
	gcMarks = []string{"malloc", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"newproc", "malg", "gfget", "gfput", "stack", "gc", "GC", "mark", "Mark", "scan",
		"sweep", "Sweep", "scaveng", "heap", "Heap", "span", "mcache", "mcentral",
		"pageAlloc", "wbBuf", "riteBarrier", "bulkBarrier", "findObject", "greyobject",
		"memclr", "sysAlloc", "sysUnused", "sysUsed", "sysFree", "madvise", "mmap", "munmap",
		"nextFree", "refill", "profilealloc", "typePointers", "assist"}
	schedMarks = []string{"chan", "select", "sched", "park", "ready", "wake", "futex", "note",
		"runq", "steal", "spin", "lock", "sema", "syscall", "netpoll", "gogo", "execute",
		"mcall", "casgstatus", "casGTo", "indRunnable", "indrunnable", "startm", "stopm",
		"handoffp", "acquirep", "releasep", "mPark", "osyield", "usleep", "procyield",
		"timer", "Timer", "goexit", "gosched", "Gosched", "send", "recv", "pidle",
		"nanotime", "sysmon", "retake", "preempt", "mstart", "exitsyscall", "entersyscall",
		"epoll", "waitq", "Sudog", "guintptr", "acquirem", "releasem", "timeHistogram"}
)

// leafKind classifies a sample by its leaf: the innermost frame outside the
// runtime's helper packages (internal/runtime/..., runtime/internal/...).
func leafKind(funcs []string) string {
	leaf := ""
	for _, f := range funcs {
		if strings.HasPrefix(f, "internal/runtime/") || strings.HasPrefix(f, "runtime/internal/") {
			continue
		}
		leaf = f
		break
	}
	name, ok := strings.CutPrefix(leaf, "runtime.")
	if !ok {
		return kindOther
	}
	for _, m := range gcMarks {
		if strings.Contains(name, m) {
			return kindGC
		}
	}
	for _, m := range schedMarks {
		if strings.Contains(name, m) {
			return kindSched
		}
	}
	return kindOther
}

// layerOf names the innermost repro/internal package on the stack.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f, "repro/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
		return "other_internal"
	}
	return "unattributed"
}

// folds holds the two shares-of-samples folds of one profile.
type folds struct {
	samples int64
	kind    map[string]float64 // leaf kind -> share
	layer   map[string]float64 // layer -> share
}

// fold computes both folds; each sums to 1 when the profile has samples.
// Samples of the benchmark's own host-speed probe are left out.
func fold(stacks []stack) folds {
	f := folds{kind: map[string]float64{}, layer: map[string]float64{}}
	var kept []stack
	for _, s := range stacks {
		if !inProbe(s.funcs) {
			kept = append(kept, s)
			f.samples += s.count
		}
	}
	if f.samples == 0 {
		return f
	}
	for _, s := range kept {
		w := float64(s.count) / float64(f.samples)
		f.kind[leafKind(s.funcs)] += w
		f.layer[layerOf(s.funcs)] += w
	}
	return f
}

func inProbe(funcs []string) bool {
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.hostSpeed") {
			return true
		}
	}
	return false
}

// sum adds up one fold's shares.
func sum(shares map[string]float64) float64 {
	t := 0.0
	for _, v := range shares {
		t += v
	}
	return t
}
