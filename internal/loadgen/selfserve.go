package loadgen

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/server"
)

// SelfServe is a running in-process target.
type SelfServe struct {
	// URL is the base URL to point RunConfig.Target at.
	URL string

	httpSrv  *http.Server
	appSrv   *server.Server
	platform *core.Platform
	done     chan struct{}
}

// StartSelfServe boots a governed server over a fresh 120-patient
// synthetic cohort on a loopback port, so smoke tests need no
// deployment. Admission is 8 concurrent, 16 queued, 200ms queue wait,
// with a 5s query deadline and no scan budget. Callers must Close it.
func StartSelfServe() (*SelfServe, error) {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 120
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: building self-serve platform: %w", err)
	}
	appSrv := server.New(p,
		server.WithQueryTimeout(5*time.Second),
		server.WithAdmission(govern.NewAdmission(8, 16, 200*time.Millisecond)),
		server.WithLogger(log.New(io.Discard, "", 0)),
	)

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
