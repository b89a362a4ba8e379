// Command fixture is the module the dead-API gate's own test runs on.
package main

import (
	"fixture/internal/p"
	"fixture/internal/q"
)

func main() {
	println(p.Use(&p.B{}, &p.Impl{}), q.Run(q.Wrapper{Model: &p.DRAM{}}))
}
