//go:build !race

package mpi

const poisonRecycled = false
