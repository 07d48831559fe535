package main

import (
	"testing"
	"time"
)

func TestCheckArbiterFlags(t *testing.T) {
	for _, tc := range []struct {
		arb, weights string
		every        time.Duration
		ok           bool
	}{
		{"fcfs", "", 0, true},
		{"fairshare", "acme=3", 0, true},
		{"rebalance", "", 30 * time.Second, true},
		{"benefit", "acme=3", 0, false},
		{"rebalance", "acme=3", time.Second, false},
		{"fcfs", "", time.Second, false},
		{"fairshare", "", time.Second, false},
		{"fairshare", "a=NaN,b=1", 0, false},
		{"fairshare", "a=Inf,b=1", 0, false},
		{"fairshare", "a=1,a=3", 0, false},
	} {
		if err := checkArbiterFlags(tc.arb, tc.weights, tc.every); (err == nil) != tc.ok {
			t.Errorf("-arbiter %s -tenant-weights %q -rebalance-every %v: %v", tc.arb, tc.weights, tc.every, err)
		}
	}
}
