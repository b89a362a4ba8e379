// Package p declares one dead method, A.Size, beside live methods that a
// name-matching check, a direct-call-only check or a single pass over the
// called interfaces would get wrong.
package p

// A.Size is dead: nothing calls it, though B.Size shares its name.
type A struct{ n int }

func (a *A) Size() int { return a.n }

// B.Size is called directly by Use.
type B struct{ n int }

func (b *B) Size() int { return b.n }

// Lener is the interface Use calls Len through.
type Lener interface{ Len() int }

type base struct{ n int }

// Len is called only through Lener, on an Impl, which it is promoted to.
func (b *base) Len() int { return b.n }

// Impl satisfies Lener and an anonymous interface{ Reset() }.
type Impl struct{ base }

// Reset is called only through the anonymous interface Use asserts to.
func (i *Impl) Reset() { i.n = 0 }

// Use calls B.Size directly, and Len and Reset through interfaces.
func Use(b *B, l Lener) int {
	if r, ok := l.(interface{ Reset() }); ok {
		r.Reset()
	}
	return b.Size() + l.Len()
}

// DRAM is the Model main wraps in a q.Wrapper.
type DRAM struct{ n int }

// Latency is called through q.Model.
func (d *DRAM) Latency() int { return d.n }

// Reset is called only through q.Component, on a q.Wrapper, whose Reset is
// q.Model's, which DRAM implements.
func (d *DRAM) Reset() { d.n = 0 }
