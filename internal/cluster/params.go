package cluster

// This file gives the hardware profile a reflective parameter surface: every
// scalar of the cost model is addressable by a stable dotted name in SI units
// (seconds, bytes per second). The calibration harness (internal/calib)
// perturbs specs through SetParam inside its optimization loop.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Spec parameter names, sorted. Bandwidths are bytes per second; latencies
// and overheads are seconds.
const (
	ParamFabricHopLat = "fabric.hop_lat"
	ParamNICBandwidth = "nic.bw"
	ParamNICOverhead  = "nic.overhead"
	ParamSSDReadBW    = "ssd.read_bw"
	ParamSSDReadLat   = "ssd.read_lat"
	ParamSSDWriteBW   = "ssd.write_bw"
	ParamSSDWriteLat  = "ssd.write_lat"
)

var specParamNames = []string{
	ParamFabricHopLat,
	ParamNICBandwidth,
	ParamNICOverhead,
	ParamSSDReadBW,
	ParamSSDReadLat,
	ParamSSDWriteBW,
	ParamSSDWriteLat,
}

// SpecParamNames returns every named Spec parameter in sorted order.
func SpecParamNames() []string {
	return append([]string(nil), specParamNames...)
}

// IsSpecParam reports whether name addresses a Spec parameter.
func IsSpecParam(name string) bool {
	i := sort.SearchStrings(specParamNames, name)
	return i < len(specParamNames) && specParamNames[i] == name
}

// Param returns the named parameter's current value in SI units.
func (s *Spec) Param(name string) (float64, error) {
	switch name {
	case ParamFabricHopLat:
		return s.Fabric.HopLatency.Seconds(), nil
	case ParamNICBandwidth:
		return s.NIC.Bandwidth, nil
	case ParamNICOverhead:
		return s.NIC.Overhead.Seconds(), nil
	case ParamSSDReadBW:
		return s.SSD.ReadBandwidth, nil
	case ParamSSDReadLat:
		return s.SSD.ReadLatency.Seconds(), nil
	case ParamSSDWriteBW:
		return s.SSD.WriteBandwidth, nil
	case ParamSSDWriteLat:
		return s.SSD.WriteLatency.Seconds(), nil
	}
	return 0, fmt.Errorf("cluster: unknown spec parameter %q (have %s)", name, strings.Join(specParamNames, ", "))
}

// SetParam sets the named parameter from an SI-unit value. Bandwidths must
// be positive and finite; latencies must be non-negative and finite —
// invalid values are rejected before they can corrupt a running model
// (bwTime panics on non-positive bandwidth).
func (s *Spec) SetParam(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("cluster: %s = %v: value must be finite", name, v)
	}
	switch name {
	case ParamNICBandwidth, ParamSSDReadBW, ParamSSDWriteBW:
		if v <= 0 {
			return fmt.Errorf("cluster: %s = %g: bandwidth must be > 0", name, v)
		}
	case ParamFabricHopLat, ParamNICOverhead, ParamSSDReadLat, ParamSSDWriteLat:
		if v < 0 {
			return fmt.Errorf("cluster: %s = %g: latency must be >= 0", name, v)
		}
	default:
		return fmt.Errorf("cluster: unknown spec parameter %q (have %s)", name, strings.Join(specParamNames, ", "))
	}
	switch name {
	case ParamFabricHopLat:
		s.Fabric.HopLatency = secsToDur(v)
	case ParamNICBandwidth:
		s.NIC.Bandwidth = v
	case ParamNICOverhead:
		s.NIC.Overhead = secsToDur(v)
	case ParamSSDReadBW:
		s.SSD.ReadBandwidth = v
	case ParamSSDReadLat:
		s.SSD.ReadLatency = secsToDur(v)
	case ParamSSDWriteBW:
		s.SSD.WriteBandwidth = v
	case ParamSSDWriteLat:
		s.SSD.WriteLatency = secsToDur(v)
	}
	return nil
}

// secsToDur converts SI seconds to a duration, rounding to the nanosecond
// tick so that a value and its re-read round-trip stably.
func secsToDur(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}
