//go:build !race

package simcluster_test

const raceEnabled = false
