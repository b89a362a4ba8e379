// Package q reaches a method of another package only through a chain of
// interfaces: Wrapper embeds a Model, and its promoted Reset satisfies
// Component, which Run calls Reset through.
package q

// Model is what Wrapper embeds. Run calls Latency through it directly, and
// Reset only through Component.
type Model interface {
	Latency() int
	Reset()
}

// Component is the interface Run calls Reset through. Only Wrapper
// implements it: a Model has no Name.
type Component interface {
	Name() string
	Reset()
}

// Wrapper's Reset, promoted from its Model, satisfies Component.
type Wrapper struct{ Model }

// Name is called through Component.
func (w Wrapper) Name() string { return "wrapper" }

// Run resets w through Component and returns its Model's latency.
func Run(w Wrapper) int {
	var c Component = w
	c.Reset()
	return len(c.Name()) + w.Latency()
}
