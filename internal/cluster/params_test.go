package cluster

import (
	"math"
	"sort"
	"testing"
)

// Every declared parameter must be gettable, settable, and round-trip
// through the SI representation exactly.
func TestSpecParamRoundTrip(t *testing.T) {
	spec := CoronaProfile(2)
	for _, name := range SpecParamNames() {
		v, err := spec.Param(name)
		if err != nil {
			t.Fatalf("Param(%s): %v", name, err)
		}
		want := v * 1.5
		if err := spec.SetParam(name, want); err != nil {
			t.Fatalf("SetParam(%s, %g): %v", name, want, err)
		}
		got, err := spec.Param(name)
		if err != nil {
			t.Fatal(err)
		}
		// Duration-backed params quantize to 1ns; everything else is exact.
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: round-trip %g -> %g", name, want, got)
		}
	}
}

func TestSpecParamNamesSortedAndRecognized(t *testing.T) {
	names := SpecParamNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("SpecParamNames not sorted: %v", names)
	}
	for _, name := range names {
		if !IsSpecParam(name) {
			t.Errorf("IsSpecParam(%s) = false", name)
		}
	}
	if IsSpecParam("ssd.read") || IsSpecParam("") || IsSpecParam("kvs.commit") {
		t.Error("IsSpecParam accepted a non-Spec name")
	}
}

func TestSpecParamRejectsInvalid(t *testing.T) {
	spec := CoronaProfile(1)
	if _, err := spec.Param("no.such"); err == nil {
		t.Error("Param(no.such) succeeded")
	}
	if err := spec.SetParam("no.such", 1); err == nil {
		t.Error("SetParam(no.such) succeeded")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if err := spec.SetParam(ParamSSDReadBW, v); err == nil {
			t.Errorf("SetParam(ssd.read_bw, %v) succeeded", v)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -1e-6} {
		if err := spec.SetParam(ParamNICOverhead, v); err == nil {
			t.Errorf("SetParam(nic.overhead, %v) succeeded", v)
		}
	}
	// Rejected sets must leave the spec untouched.
	if spec != CoronaProfile(1) {
		t.Error("rejected SetParam mutated the spec")
	}
}
