package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/server"
	"github.com/ddgms/ddgms/internal/storage"
)

// stages are the wall times of the set-up steps, in run order.
type stages struct {
	generate, load, bootstrap time.Duration
}

func (s stages) total() time.Duration { return s.generate + s.load + s.bootstrap }

// buildPlatform does what `ddgms serve -follow -data dir` does to an empty
// directory: generate the cohort, load it into the durable store (WAL and
// fsync policy as shipped), and bootstrap the warehouse from a snapshot.
func buildPlatform(dir string, patients int) (*core.Platform, *govern.Breaker, *storage.Table, stages, error) {
	var st stages
	t0 := time.Now()
	cfg := discri.DefaultConfig()
	cfg.Patients = patients
	raw, err := discri.Generate(cfg)
	if err != nil {
		return nil, nil, nil, st, err
	}
	st.generate = time.Since(t0)

	t0 = time.Now()
	p := core.New(core.Config{DataDir: dir})
	if err := p.OpenStore(raw.Schema()); err != nil {
		return nil, nil, nil, st, err
	}
	if err := p.Store().LoadTable(raw); err != nil {
		p.Close()
		return nil, nil, nil, st, err
	}
	st.load = time.Since(t0)

	t0 = time.Now()
	breaker := govern.NewBreaker(govern.BreakerConfig{Name: "oltp", Health: p.Store().Healthy})
	if err := p.StartFollow(core.FollowConfig{
		Pipeline:  core.NewDiScRiPipeline(),
		Builder:   core.NewDiScRiBuilder(),
		CursorDir: filepath.Join(dir, "cdc"),
		Setup:     core.FinishDiScRiSetup,
		Breaker:   breaker,
	}); err != nil {
		p.Close()
		return nil, nil, nil, st, err
	}
	st.bootstrap = time.Since(t0)
	return p, breaker, raw, st, nil
}

// env is one running system under test: the platform, the handler stack
// `ddgms serve` builds around it on a loopback listener, the follow loop,
// and the client the drivers share.
type env struct {
	dir     string
	p       *core.Platform
	raw     *storage.Table
	handler *server.Server
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client

	stopFollow context.CancelFunc
	followed   chan struct{}
}

// start stands the system up in a fresh directory under tmp.
func start(tmp string, patients, conns int) (*env, stages, error) {
	dir, err := os.MkdirTemp(tmp, "store")
	if err != nil {
		return nil, stages{}, err
	}
	p, breaker, raw, st, err := buildPlatform(dir, patients)
	if err != nil {
		os.RemoveAll(dir)
		return nil, st, err
	}
	e := &env{dir: dir, p: p, raw: raw}

	// cmdServe's defaults, minus its stdout chatter.
	e.handler = server.New(p,
		server.WithQueryTimeout(30*time.Second),
		server.WithAdmission(govern.NewAdmission(2*runtime.GOMAXPROCS(0), 64, time.Second)),
		server.WithBreaker(breaker),
		server.WithLogger(log.New(os.Stderr, "", 0)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		os.RemoveAll(dir)
		return nil, st, err
	}
	e.url = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: e.handler, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
	e.runFollow()
	return e, st, nil
}

// runFollow starts the CDC → refresh loop as `serve -follow` runs it.
func (e *env) runFollow() {
	ctx, cancel := context.WithCancel(context.Background())
	e.stopFollow, e.followed = cancel, make(chan struct{})
	go func() {
		defer close(e.followed)
		if err := e.p.RunFollow(ctx); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "follow loop: %v\n", err)
		}
	}()
}

// haltFollow stops the loop and waits for it, leaving Refresh to the caller.
func (e *env) haltFollow() {
	e.stopFollow()
	<-e.followed
}

// stop shuts every part down in cmdServe's order and removes the store.
func (e *env) stop() error {
	e.haltFollow()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.handler.Shutdown(ctx)
	err = errors.Join(err, e.srv.Shutdown(ctx))
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	err = errors.Join(err, e.p.Close())
	return errors.Join(err, os.RemoveAll(e.dir))
}

// post sends one request to the server at base and returns the status
// and the whole body.
func (e *env) post(base string, r *request, buf *bytes.Buffer) (int, error) {
	resp, err := e.client.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

// commit inserts one attendance in its own transaction.
func (e *env) commit(row oltp.Row) error {
	tx := e.p.Store().Begin()
	if _, err := tx.Insert(row); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// awaitVisible blocks until the warehouse has applied every commit the
// store has acknowledged. Freshness takes the maintainer's read lock, so
// a poll issued during a refresh batch returns as that batch finishes.
func (e *env) awaitVisible(deadline time.Time) error {
	for {
		f, _ := e.p.Freshness()
		if f.LagTx == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warehouse still %d transactions behind at the deadline", f.LagTx)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
