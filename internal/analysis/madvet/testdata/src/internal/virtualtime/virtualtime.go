// Fixture for the virtualtime analyzer: a library package may import
// neither the wall clock nor math/rand; anything else is its own business.
package virtualtime

import (
	"math/rand" // want `math/rand imported outside tests`
	"sort"
	"time" // want `library package internal/virtualtime imports time`
)

var (
	_ = rand.Int
	_ = sort.Ints
	_ = time.Now
)
