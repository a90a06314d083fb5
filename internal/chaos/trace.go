package chaos

import "lbrm/internal/netsim"

// traceHash fingerprints the run into Result.TraceHash: every traversal,
// decodable or not, folds in tap order (netsim.FoldTrace, starting from
// 0), so two runs of one seed compare with a single integer.
type traceHash struct{ res *Result }

func (c traceHash) observe(ev *event) {
	if ev.kind == evTap {
		c.res.TraceHash = netsim.FoldTrace(c.res.TraceHash, ev.tap)
	}
}

func (traceHash) final() {}
