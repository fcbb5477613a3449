// Package backend defines the compile-target seam of the synthesis stack:
// the contract a hardware (or software) machine model must implement for
// the Domino frontend and the CEGIS core to target it.
//
// The paper's playbook — sketch a machine template whose configuration
// values are holes, fill the holes with CEGIS, verify the filled sketch
// against the packet-transaction semantics — is not PISA-specific: K2
// applies the identical loop to BPF bytecode. What the loop actually needs
// from a target is small and is captured by the three interfaces here:
//
//   - Backend: a factory for symbolic sketches at a given program size
//     (stages for a PISA grid, instruction slots for a register machine),
//     plus a capacity pre-check so impossible shapes are rejected as a
//     clean infeasible verdict before any solving.
//   - Sketch: one symbolic machine instance — hole inventory, CNF domain
//     constraints, per-test datapath instantiation, and concrete config
//     decoding from a solver model.
//   - Config: one synthesized artifact — a concrete interpreter for
//     cross-checking and simulation, and a symbolic re-encoding (holes
//     lifted to constants) for the CEGIS verification query.
//
// internal/sketch adapts the PISA grid onto these interfaces;
// internal/bpf implements a restricted eBPF-style register machine.
// internal/cegis and internal/core consume only the interfaces, so every
// subsystem above the seam (cache, portfolio, difftest, daemon) gains new
// targets for free.
package backend

import (
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/word"
)

// Backend is one compile target: a machine-model family parameterized by a
// single "size" axis that the core's iterative-deepening loop minimizes
// (pipeline stages for PISA, instruction slots for BPF). Implementations
// are plain values configured with their machine description; they must be
// safe for concurrent use (portfolio members share one Backend).
type Backend interface {
	// Target names the backend ("pisa", "bpf"). It participates in the
	// solution cache fingerprint, so two backends must never share a name.
	Target() string
	// Check validates the machine description at the given size and
	// reports whether a program with the given variable counts can fit at
	// all. A false report with a nil error is a definitive infeasible
	// verdict (e.g. more packet fields than containers/registers), not an
	// error: the paper's compiler rejects nothing for syntactic reasons,
	// but capacity is physics.
	Check(size, numFields, numStates int) (fits bool, err error)
	// NewSketch allocates the symbolic machine's hole words on b for a
	// program of the given size and variable counts.
	NewSketch(b *circuit.Builder, size, numFields, numStates int) (Sketch, error)
}

// Sketch is a symbolic partial program: a machine datapath whose
// configuration values are free hole words owned by one circuit.Builder.
// The CEGIS loop instantiates it once per concrete test input (synthesis
// side) and decodes a concrete Config from each solver model.
type Sketch interface {
	// HoleCount returns the number of holes and their total bit count —
	// the m of the paper's Equation 1 (search-space size).
	HoleCount() (holes, bits int)
	// HoleInventory returns each hole's name and bit width in
	// deterministic (creation) order.
	HoleInventory() (names []string, bits []int)
	// MinWidth is the narrowest datapath width at which the sketch may be
	// instantiated soundly: the width of the widest control hole (control
	// encodings must not truncate; data holes/immediates may).
	MinWidth() word.Width
	// PublishMetrics records the hole inventory into the registry (a nil
	// registry no-ops).
	PublishMetrics(reg *obs.Registry)
	// Instantiate runs the symbolic datapath at width w over the given
	// field and state words (each of width w), returning the output words.
	Instantiate(w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word)
	// AssertDomains adds the hole-domain constraints (opcode masks,
	// selector ranges, allocation invariants) to the CNF.
	AssertDomains(cnf *circuit.CNF)
	// Extract reads every hole's value from the solver model and decodes
	// a concrete configuration. fields and states are the canonical
	// variable-name orders; runWidth is the datapath width recorded for
	// subsequent simulation.
	Extract(cnf *circuit.CNF, fields, states []string, runWidth word.Width) Config
}

// SymmetryBreaker is the optional opt-in seam for symmetry breaking: a
// Backend that also implements it and reports true emits
// solution-space-pruning constraints (tagged circuit.GroupSymmetry) from
// AssertDomains in addition to the hole domains. Backends without
// interchangeable resources (e.g. the BPF register machine, whose slots
// are ordered by control flow) simply do not implement the interface and
// never pay for — or risk being perturbed by — the machinery.
type SymmetryBreaker interface {
	// SymmetryBreaking reports whether this backend instance emits
	// symmetry-breaking constraints from its sketches' AssertDomains.
	SymmetryBreaking() bool
}

// Config is a fully synthesized artifact: concrete values for every hole,
// plus the variable allocation mapping program names to machine resources.
type Config interface {
	// Target names the backend that produced this configuration.
	Target() string
	// Validate checks structural consistency and allocation invariants.
	Validate() error
	// Vars returns the packet fields and state variables in allocation
	// order.
	Vars() (fields, states []string)
	// RunWidth is the datapath width the configuration is proven at (the
	// CEGIS verification width).
	RunWidth() word.Width
	// Exec runs one packet transaction concretely. Unknown input keys are
	// passed through; missing fields and state read as zero. The input
	// maps are not modified.
	Exec(pkt, state map[string]uint64) (outPkt, outState map[string]uint64)
	// Symbolic re-encodes the configured machine at width w over free
	// input words, with every hole lifted to a constant — the pipeline
	// side of the CEGIS verification query.
	Symbolic(b *circuit.Builder, w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word)
	// String renders a human-readable configuration dump.
	String() string
}
