package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tcsim"
	"tcsim/client"
)

// maxSweepCells bounds one sweep request's fan-out so a single POST
// cannot queue unbounded work.
const maxSweepCells = 4096

// sweepCell is one (workload, config) pair of the cross product. req is
// the single-cell JobRequest the spec was resolved from (workload and
// insts inlined), kept so the cluster gateway can re-issue the cell to
// a backend node verbatim.
type sweepCell struct {
	spec jobSpec
	req  client.JobRequest
}

// SweepCell is one resolved cell of a sweep's cross product, exported
// for the cluster gateway: the gateway expands a SweepRequest exactly
// as a node would, routes each cell by its canonical config key, and
// forwards it as a single-cell sweep.
type SweepCell struct {
	// Workload is the cell's bundled benchmark name.
	Workload string
	// Key is the canonical config hash — the cluster routing key, and
	// identical to the key the serving node computes.
	Key string
	// Req reproduces the cell as a standalone single-cell request
	// (workload cleared: it travels in SweepRequest.Workloads).
	Req client.JobRequest
}

// ResolveSweepCells expands a SweepRequest into routed cells using the
// same resolution and validation the sweep handler runs, including the
// maxSweepCells bound. lim bounds per-cell insts/timeout; the zero
// Limits imposes only the daemon's universal checks (each backend
// re-validates against its own limits anyway).
func ResolveSweepCells(req *client.SweepRequest, lim Limits) ([]SweepCell, error) {
	cells, err := resolveSweep(req, lim)
	if err != nil {
		return nil, err
	}
	out := make([]SweepCell, len(cells))
	for i, c := range cells {
		r := c.req
		r.Workload = ""
		out[i] = SweepCell{Workload: c.spec.Workload, Key: c.spec.Key(), Req: r}
	}
	return out, nil
}

// resolveSweep expands a SweepRequest into resolved cells.
func resolveSweep(req *client.SweepRequest, lim Limits) ([]sweepCell, error) {
	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = tcsim.Workloads()
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = []client.JobRequest{{}}
	}
	if n := len(workloads) * len(configs); n > maxSweepCells {
		return nil, badRequestf("sweep of %d cells exceeds the per-request limit %d", n, maxSweepCells)
	}
	cells := make([]sweepCell, 0, len(workloads)*len(configs))
	for _, cfg := range configs {
		if cfg.Workload != "" {
			return nil, badRequestf("sweep configs must not name a workload (got %q); use the workloads list", cfg.Workload)
		}
		for _, w := range workloads {
			jr := cfg
			jr.Workload = w
			if jr.Insts == 0 {
				jr.Insts = req.Insts
			}
			spec, err := resolveSpec(&jr, lim)
			if err != nil {
				return nil, err
			}
			cells = append(cells, sweepCell{spec: spec, req: jr})
		}
	}
	return cells, nil
}

// runSweep runs every cell through the engine exactly as a job: the
// same config translation, result cache, singleflight, worker slots and
// per-cell timeout. The first real error cancels the remaining cells.
// Simulations counts the cells the engine actually simulated.
func runSweep(ctx context.Context, e *Engine, cells []sweepCell) (*client.SweepResponse, error) {
	t0 := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rows := make([]client.SweepRow, len(cells))
	errs := make([]error, len(cells))
	var sims atomic.Uint64
	var wg sync.WaitGroup
	for i, cell := range cells {
		i, cell := i, cell
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, cached, err := e.Run(ctx, cell.spec)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			if !cached {
				sims.Add(1)
			}
			rows[i] = client.SweepRow{
				Workload:       cell.spec.Workload,
				Key:            cell.spec.Key(),
				IPC:            res.IPC,
				Cycles:         res.Cycles,
				Retired:        res.Retired,
				TCHitRate:      res.TraceCacheHitRate,
				MispredictRate: res.MispredictRate,
			}
		}()
	}
	wg.Wait()
	e.met.sweepSims.Add(sims.Load())
	for _, err := range errs {
		if err != nil && !isCancel(err) {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &client.SweepResponse{
		Rows:        rows,
		Cells:       len(cells),
		Simulations: sims.Load(),
		WallMS:      float64(time.Since(t0).Microseconds()) / 1000,
	}, nil
}
