// Package interceptor exercises the interceptor-contract rule: no
// engine-state mutation on paths that can still decline the op.
package interceptor

// Op is the operation offered to the chain.
type Op struct{ Kind int }

// Engine is the mutable state an interceptor must not touch before claiming.
type Engine struct {
	Counter int
}

// Interceptor is the direct-handling backend interface.
type Interceptor interface {
	InterceptorInfo() (string, int)
	TryHandle(op Op) (bool, error)
}

// Good claims before mutating: clean.
type Good struct{ eng *Engine }

func (g *Good) InterceptorInfo() (string, int) { return "good", 10 }

func (g *Good) TryHandle(op Op) (bool, error) {
	if op.Kind != 3 {
		return false, nil
	}
	g.eng.Counter++
	return true, nil
}

// Bad mutates before declining.
type Bad struct{ eng *Engine }

func (b *Bad) InterceptorInfo() (string, int) { return "bad", 20 }

func (b *Bad) TryHandle(op Op) (bool, error) {
	b.eng.Counter++ // want "mutates engine state"
	if op.Kind == 7 {
		return true, nil
	}
	return false, nil
}

// Sneaky routes the premature mutation through a helper call.
type Sneaky struct{ eng *Engine }

func (s *Sneaky) InterceptorInfo() (string, int) { return "sneaky", 30 }

func (s *Sneaky) bump() { s.eng.Counter++ }

func (s *Sneaky) TryHandle(op Op) (bool, error) {
	s.bump() // want "mutates engine state"
	if op.Kind == 9 {
		return true, nil
	}
	return false, nil
}

// Errful mutates and then aborts with an error — exempt: an error settles
// the transaction instead of forwarding the exit, so nothing observes the
// half-applied state twice.
type Errful struct {
	eng *Engine
	err error
}

func (f *Errful) InterceptorInfo() (string, int) { return "errful", 40 }

func (f *Errful) TryHandle(op Op) (bool, error) {
	f.eng.Counter++
	if op.Kind == 0 {
		return false, f.err
	}
	return true, nil
}
