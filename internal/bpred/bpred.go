// Package bpred implements the branch predictor both core timing models use:
// a two-level (GShare-style) predictor with a global history register and a
// table of 2-bit saturating counters, the organization the paper models for
// its Westmere-class core ("a modeled 2-level branch predictor with an
// idealized BTB").
//
// The predictor is purely behavioural: it receives the branch PC and the
// actual outcome (supplied by the workload trace) and reports whether the
// prediction would have been correct. The timing models translate a
// misprediction into a fixed pipeline-flush penalty, as Westmere recovers
// from mispredictions in a roughly constant number of cycles, and count
// predictions and mispredictions in their own statistics.
package bpred

import "zsim/internal/arena"

// The predictor geometry: a 16K-entry counter table indexed by the branch PC
// XORed with 12 bits of global history, packed four 2-bit counters to a byte
// (a 4 KB table).
const (
	entries     = 16384
	histBits    = 12
	counterBits = 2
	counterMask = 1<<counterBits - 1
	perByte     = 8 / counterBits
)

// counter2 is a 2-bit saturating counter stored in a biased encoding
// (stored = actual ^ 2), chosen so the zero value decodes to "weakly taken"
// — the usual initialization. Tables therefore need no init loop: a zeroed
// allocation is already correctly initialized, which makes building
// thousand-core chips (one predictor per core) measurably cheaper. A
// counter2 value occupies the low two bits; the table stores four per byte.
type counter2 uint8

func (c counter2) actual() uint8 { return uint8(c) ^ 2 }

func (c counter2) taken() bool { return c.actual() >= 2 }

func (c counter2) update(taken bool) counter2 {
	a := c.actual()
	if taken {
		if a < 3 {
			a++
		}
	} else if a > 0 {
		a--
	}
	return counter2(a ^ 2)
}

// TwoLevel is a GShare-style two-level predictor: a global history register
// XORed with the branch PC indexes a table of 2-bit counters (the paper
// models a 2-level predictor; the exact Westmere organization is
// undisclosed). Counter i sits in bits 2*(i%4) of table[i/4]. It is not safe
// for concurrent use: each simulated core owns its own predictor.
type TwoLevel struct {
	table   []uint8
	history uint64
}

// New creates a predictor with the table carved from the given construction
// arena (nil falls back to the heap).
func New(a *arena.Arena) *TwoLevel {
	g := arena.One[TwoLevel](a)
	g.table = arena.Take[uint8](a, entries/perByte)
	return g
}

// PredictAndUpdate predicts the branch at pc under the current global
// history, trains the indexed counter with the actual outcome, shifts the
// outcome into the history register, and reports whether the prediction was
// correct.
func (g *TwoLevel) PredictAndUpdate(pc uint64, taken bool) bool {
	i := ((pc >> 2) ^ g.history) & (entries - 1)
	b := &g.table[i/perByte]
	shift := (i % perByte) * counterBits
	c := counter2(*b>>shift) & counterMask
	correct := c.taken() == taken
	*b = *b&^(counterMask<<shift) | uint8(c.update(taken))<<shift
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= 1<<histBits - 1
	return correct
}

// Reset clears the counter table and the global history register, restoring
// the just-constructed state (zeroed biased counters decode to weakly taken).
func (g *TwoLevel) Reset() {
	clear(g.table)
	g.history = 0
}
