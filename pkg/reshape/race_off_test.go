//go:build !race

package reshape

const raceEnabled = false
