// Package inner holds the declaration behind a chain of two aliases.
package inner

type Level int

func (l Level) Name() string { return "level" }
