package wcet

import (
	"context"

	"repro/internal/link"
	"repro/internal/obs"
)

// AnalyzeCtx is Analyze with the caller's context threaded in: the IPET
// solve records an "ipet" span under the context's trace (and carries its
// request id). The bound is identical to Analyze.
func AnalyzeCtx(ctx context.Context, exe *link.Executable, opts Options) (*Result, error) {
	_, sp := obs.Start(ctx, "ipet", obs.A("mode", "scratch"), obs.A("spm", exe.SPMSize))
	defer sp.End()
	res, err := Analyze(exe, opts)
	if err == nil {
		sp.SetAttr("wcet", res.WCET)
	}
	return res, err
}

// AnalyzeCtx is Context.Analyze with the caller's context threaded in,
// recording the incremental analysis as an "ipet" span. Bit-identical to
// Analyze.
func (c *Context) AnalyzeCtx(ctx context.Context, cacheSize, spmSize uint32, inSPM map[string]bool, witness bool) (*Result, error) {
	attrs := []obs.Attr{obs.A("mode", "incremental"), obs.A("spm", spmSize)}
	if c.shape != nil {
		attrs = []obs.Attr{obs.A("mode", "cache-incremental"), obs.A("cache", cacheSize), obs.A("spm", spmSize)}
	}
	_, sp := obs.Start(ctx, "ipet", attrs...)
	defer sp.End()
	res, err := c.Analyze(cacheSize, spmSize, inSPM, witness)
	if err == nil {
		sp.SetAttr("wcet", res.WCET)
	}
	return res, err
}
