package testonly

import "sort"

// registry is a package-level declaration: what it names is a root.
var registry = []func() int{Registered}

// Registered is reached from registry.
func Registered() int { return helperOfLive() }

// helperOfLive is reached from a live function.
func helperOfLive() int { return 1 }

func init() { sort.Sort(byLen(nil)) }

// Orphan is an export nothing reaches.
func Orphan() int { return orphanHelper() } // want "Orphan is reached only from tests"

// orphanHelper is reached only from Orphan, so it is as dead (the fixpoint).
func orphanHelper() int { return 2 } // want "orphanHelper is reached only from tests"

// byLen is handed to sort.Sort; Len, Less and Swap satisfy sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// shaper is an interface the program declares; its methods are exempt.
type shaper interface{ Area() float64 }

type square struct{ side float64 }

// Area matches shaper.Area, so it may be called through the interface.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter matches no interface and nothing calls it.
func (s square) Perimeter() float64 { return 4 * s.side } // want "square.Perimeter is reached only from tests"

// code is matched by errors.Is through its Is method.
type code int

func (c code) Error() string        { return "code" }
func (c code) Is(target error) bool { return target == code(0) }

// Oracle is kept for tests of other packages.
//
//lint:allow testonly oracle: compared against in a cross-package test
func Oracle() int { return oracleHelper() }

// oracleHelper is live because an allowed declaration reaches it.
func oracleHelper() int { return 3 }

// Bare carries an allow with no reason, which is itself reported and
// does not exempt the declaration.
//
//lint:allow testonly // want "lint:allow testonly needs a justification"
func Bare() int { return 4 } // want "Bare is reached only from tests"
