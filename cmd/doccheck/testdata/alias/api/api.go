// Package api re-exports its siblings' types by alias, the way the SDK
// re-exports internal ones.
package api

import (
	"time"

	"fixture/impl"
)

type Thing = impl.Thing // a struct with methods

type Doer = impl.Doer // an interface

type Level = impl.Level // itself an alias in impl

type Duration = time.Duration // outside the module: nothing to expand
