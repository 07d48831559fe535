package rebalance

// Costs returns how many job views the Rebalancer has built and how many
// bids it has priced since New.
func (r *Rebalancer) Costs() (views, bids int) { return r.built, r.priced }

// Walked returns how many running jobs the Rebalancer's resyncs have walked
// since New.
func (r *Rebalancer) Walked() int { return r.walked }
