//go:build !race

package resize

const raceEnabled = false
