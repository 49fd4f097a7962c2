// Package impl declares the types package api re-exports.
package impl

import "fixture/impl/inner"

type Thing struct {
	Count      int
	Start, End int
	hidden     int
}

func (t *Thing) Grow(by int) *Thing { t.Count += by; return t }

func (t Thing) String() string { return "thing" }

func (t Thing) secret() int { return t.hidden }

type Doer interface {
	Do(n int) error
}

type Level = inner.Level

// Unrelated is not aliased by api and must stay out of its surface.
type Unrelated struct{ Field int }
