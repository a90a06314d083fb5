package chaos

// singlePrimary is invariant 3: once the run has converged, exactly one
// live logging server acts as primary.
type singlePrimary struct {
	res *Result
	f   *fleet
}

func (singlePrimary) observe(*event) {}

func (c singlePrimary) final() {
	if acting := len(c.f.acting()); acting != 1 {
		c.res.violate("single-primary", "%d acting primaries among live loggers", acting)
	}
}
