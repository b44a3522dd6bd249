package loadgen

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/kb"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/server"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
)

// SelfServeConfig shapes the in-process target StartSelfServe builds:
// a fully governed ddgms server over a synthetic DiScRi cohort, bound
// to a loopback port. It exists so capacity sweeps and smoke runs need
// no deployment — the knee the sweep finds is then a property of the
// chosen governance flags, reproducible anywhere.
type SelfServeConfig struct {
	// Patients is the synthetic cohort size (default 120 — small keeps
	// per-query work light so governance, not the dataset, is what the
	// sweep measures).
	Patients int
	// MaxConcurrent/Queue/QueueWait wire the admission controller
	// exactly as `ddgms serve` flags of the same names do.
	// MaxConcurrent default 8; Queue default 16; QueueWait default 200ms.
	MaxConcurrent int
	Queue         int
	QueueWait     time.Duration
	// QueryTimeout is the per-query deadline (default 5s).
	QueryTimeout time.Duration
	// ScanBudget, when positive, enables the per-query scanned-row
	// budget (422 on breach).
	ScanBudget int64
	// ServiceTime, when positive, adds an artificial context-honouring
	// delay to every query so a small in-process dataset still exhibits
	// a realistic capacity knee at maxConcurrent/serviceTime rps.
	ServiceTime time.Duration
}

// SelfServe is a running in-process target.
type SelfServe struct {
	// URL is the base URL to point RunConfig.Target at.
	URL string

	httpSrv  *http.Server
	appSrv   *server.Server
	platform *core.Platform
	done     chan struct{}
}

// StartSelfServe boots a governed server over a fresh synthetic cohort
// on a loopback port. Callers must Close it.
func StartSelfServe(cfg SelfServeConfig) (*SelfServe, error) {
	if cfg.Patients <= 0 {
		cfg.Patients = 120
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 200 * time.Millisecond
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 5 * time.Second
	}

	dcfg := discri.DefaultConfig()
	dcfg.Patients = cfg.Patients
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: building self-serve platform: %w", err)
	}

	var platform server.Platform = p
	if cfg.ServiceTime > 0 {
		platform = &delayed{Platform: p, d: cfg.ServiceTime}
	}

	opts := []server.Option{
		server.WithQueryTimeout(cfg.QueryTimeout),
		server.WithAdmission(govern.NewAdmission(cfg.MaxConcurrent, cfg.Queue, cfg.QueueWait)),
		server.WithLogger(log.New(discard{}, "", 0)),
	}
	if cfg.ScanBudget > 0 {
		budget := cfg.ScanBudget
		opts = append(opts, server.WithQueryBudget(func() *govern.Budget {
			return govern.NewBudget(budget, 0, 0)
		}))
	}
	appSrv := server.New(platform, opts...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("loadgen: self-serve listen: %w", err)
	}
	ss := &SelfServe{
		URL:      "http://" + ln.Addr().String(),
		httpSrv:  &http.Server{Handler: appSrv},
		appSrv:   appSrv,
		platform: p,
		done:     make(chan struct{}),
	}
	go func() {
		defer close(ss.done)
		if err := ss.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("loadgen: self-serve: %v", err)
		}
	}()
	return ss, nil
}

// Close drains in-flight queries and tears the target down.
func (ss *SelfServe) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ss.appSrv.Shutdown(ctx)
	err := ss.httpSrv.Shutdown(ctx)
	<-ss.done
	ss.platform.Close()
	return err
}

// delayed wraps a platform with an artificial per-query service time.
// The sleep honours ctx so cancellation, deadlines and shutdown still
// preempt a "running" query, which keeps 499/504 behaviour realistic.
type delayed struct {
	Platform *core.Platform
	d        time.Duration
}

func (d *delayed) sleep(ctx context.Context) error {
	t := time.NewTimer(d.d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

func (d *delayed) Warehouse() *star.Schema { return d.Platform.Warehouse() }
func (d *delayed) KB() *kb.Base            { return d.Platform.KB() }
func (d *delayed) Store() *oltp.Store      { return d.Platform.Store() }
func (d *delayed) RecordFinding(topic, statement, source string) (string, error) {
	return d.Platform.RecordFinding(topic, statement, source)
}

func (d *delayed) QueryMDXCtx(ctx context.Context, src string) (*cube.CellSet, error) {
	if err := d.sleep(ctx); err != nil {
		return nil, err
	}
	return d.Platform.QueryMDXCtx(ctx, src)
}

func (d *delayed) QuerySQLCtx(ctx context.Context, src string) (*storage.Table, error) {
	if err := d.sleep(ctx); err != nil {
		return nil, err
	}
	return d.Platform.QuerySQLCtx(ctx, src)
}

func (d *delayed) QueryFlatCtx(ctx context.Context, q flatquery.Query) (*flatquery.Result, error) {
	if err := d.sleep(ctx); err != nil {
		return nil, err
	}
	return d.Platform.QueryFlatCtx(ctx, q)
}

// discard is a zero-dependency io.Writer for the muted server logger.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
