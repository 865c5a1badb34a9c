// Package models holds the molecular model registry of the paper's
// Tables I and II: the four molecular structures (JAC, ApoA1, F1 ATPase,
// STMV), their atom counts, frame sizes, simulation rates, and the stride
// arithmetic that equalizes frame-generation frequency across models.
package models

import (
	"fmt"
	"time"

	"repro/internal/frame"
)

// Table2FreqS is the paper's Table II frame-generation frequency in
// seconds, the same for every model: the default strides emit one frame
// per ~0.82 s.
const Table2FreqS = 0.82

// Model describes one molecular structure in an MD workflow.
type Model struct {
	// Name is the structure's common name ("JAC", "STMV", ...).
	Name string
	// Atoms is the atom count of the molecular system.
	Atoms int
	// StepsPerSecond is the MD engine's simulation rate for this model
	// (derived, as in the paper, from published NAMD ns/day benchmarks).
	StepsPerSecond float64
	// Stride is the default output stride (Table II): the number of MD
	// steps between emitted frames, chosen so every model generates one
	// frame per ~0.82 s.
	Stride int
}

// Registry returns the paper's four models in Table I order.
func Registry() []Model {
	return []Model{
		{Name: "JAC", Atoms: 23_558, StepsPerSecond: 1072.92, Stride: 880},
		{Name: "ApoA1", Atoms: 92_224, StepsPerSecond: 358.22, Stride: 294},
		{Name: "F1 ATPase", Atoms: 327_506, StepsPerSecond: 115.74, Stride: 92},
		{Name: "STMV", Atoms: 1_066_628, StepsPerSecond: 34.14, Stride: 28},
	}
}

// ByName looks a model up case-sensitively by name (also accepting the
// space-free spelling "F1ATPase").
func ByName(name string) (Model, error) {
	for _, m := range Registry() {
		if m.Name == name {
			return m, nil
		}
	}
	if name == "F1ATPase" || name == "F1-ATPase" {
		return Registry()[2], nil
	}
	return Model{}, fmt.Errorf("models: unknown molecular model %q", name)
}

// Custom builds a user-defined model for studies beyond the paper's four
// structures. Stride, when zero, is derived to hit the paper's Table2FreqS
// frame-generation frequency.
func Custom(name string, atoms int, stepsPerSecond float64, stride int) (Model, error) {
	if name == "" || atoms <= 0 || stepsPerSecond <= 0 {
		return Model{}, fmt.Errorf("models: custom model needs a name, atoms > 0, steps/s > 0 (got %q, %d, %v)",
			name, atoms, stepsPerSecond)
	}
	if stride <= 0 {
		stride = int(Table2FreqS*stepsPerSecond + 0.5)
		if stride < 1 {
			stride = 1
		}
	}
	return Model{Name: name, Atoms: atoms, StepsPerSecond: stepsPerSecond, Stride: stride}, nil
}

// MsPerStep returns the wall-clock milliseconds one MD step takes
// (Table II's ms/step column).
func (m Model) MsPerStep() float64 { return 1000 / m.StepsPerSecond }

// StepDuration returns one MD step as a duration.
func (m Model) StepDuration() time.Duration {
	return time.Duration(float64(time.Second) / m.StepsPerSecond)
}

// FrameBytes returns the serialized frame size for this model, matching
// Table I (~28 bytes per atom plus a fixed header).
func (m Model) FrameBytes() int64 { return frame.EncodedSize(m.Name, m.Atoms) }

// Frequency returns the frame-generation period for a given stride:
// stride * step duration (Table II's Frequency column for the default
// strides, ~0.82 s for every model).
func (m Model) Frequency(stride int) time.Duration {
	if stride < 1 {
		panic(fmt.Sprintf("models: stride %d < 1", stride))
	}
	return time.Duration(stride) * m.StepDuration()
}

// DefaultFrequency returns Frequency(m.Stride).
func (m Model) DefaultFrequency() time.Duration { return m.Frequency(m.Stride) }

// String renders the Table I row.
func (m Model) String() string {
	return fmt.Sprintf("%s: %d atoms, %.2f KiB/frame, %.2f steps/s",
		m.Name, m.Atoms, float64(m.FrameBytes())/1024, m.StepsPerSecond)
}
