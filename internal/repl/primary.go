package repl

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/oltp"
)

// PrimaryConfig configures the sending side of replication.
type PrimaryConfig struct {
	// Store is the primary's oltp store, whose WAL is shipped.
	Store *oltp.Store
	// Listener accepts follower connections. The primary owns it and
	// closes it on Close. Tests inject a faultnet-wrapped listener.
	Listener net.Listener
	// Epoch is the replication epoch this primary leads. Zero means
	// "resolve from Dir": the highest durably recorded epoch, or 1 on a
	// fresh node. Promote passes follower-epoch+1 explicitly.
	Epoch uint64
	// Dir, when set, persists the epoch durably (and is where a
	// previously-follower node left its cursor record). A primary that
	// restarts without it cannot prove which epoch it led.
	Dir string
	// FS is the filesystem for epoch persistence; nil means the real one.
	FS faultfs.FS
	// OnFenced fires (once, from its own goroutine) when this primary
	// observes a higher epoch on the wire and fences itself: it has
	// stopped streaming and refuses all sessions. The hook is where the
	// embedding process demotes the store back to replica mode.
	OnFenced func(higherEpoch uint64)
	// MaxLagSegments evicts a follower's retention pin once it falls
	// more than this many WAL segments behind the durable tail; the
	// follower must snapshot-bootstrap when it returns. 0 disables
	// eviction (a dead follower then pins disk forever). Default 8.
	MaxLagSegments uint64
	// HeartbeatEvery is how often a caught-up follower is sent a
	// heartbeat frame (which also advances its cursor). Default 500ms.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds each frame write so a stalled follower is
	// detected and dropped. Default 5s.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for the hello frame. Default 5s.
	HandshakeTimeout time.Duration
	// SnapshotChunkRows is the row count per snapshot chunk frame.
	// Default 512.
	SnapshotChunkRows int
	// BatchTx caps transactions read per TailWAL poll. Default 64.
	BatchTx int
	// Log, when set, receives connection lifecycle lines.
	Log *log.Logger
}

// followerRec is the primary's accounting for one follower id. Records
// outlive connections: a disconnected follower keeps its retention pin
// (so it can resume without a resync) until eviction fires.
type followerRec struct {
	id        string
	conn      net.Conn // live connection, nil when disconnected
	connected bool
	snapping  bool
	streamed  oltp.WALCursor // last frame LSN written to the wire
	acked     oltp.WALCursor // last fAck received
	pinned    bool
	pinSeq    uint64
	lastAck   time.Time
	resyncs   uint64
	evicted   bool
}

// Primary streams the store's committed transactions to any number of
// followers, each on its own connection with its own retention pin.
type Primary struct {
	cfg    PrimaryConfig
	store  *oltp.Store
	ln     net.Listener
	schema uint64
	epoch  uint64

	mu        sync.Mutex
	followers map[string]*followerRec
	closed    bool
	fenced    bool

	fenceOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// StartPrimary begins accepting followers on cfg.Listener.
func StartPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.Store == nil || cfg.Listener == nil {
		return nil, errors.New("repl: primary needs a store and a listener")
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.Epoch == 0 {
		if cfg.Dir != "" {
			known, err := knownEpoch(cfg.FS, cfg.Dir)
			if err != nil {
				return nil, err
			}
			cfg.Epoch = known
		}
		if cfg.Epoch == 0 {
			cfg.Epoch = 1
		}
	}
	if cfg.Dir != "" {
		if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
			return nil, fmt.Errorf("repl: creating epoch dir: %w", err)
		}
		if err := saveEpoch(cfg.FS, cfg.Dir, cfg.Epoch); err != nil {
			return nil, err
		}
	}
	if cfg.MaxLagSegments == 0 {
		cfg.MaxLagSegments = 8
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.SnapshotChunkRows <= 0 {
		cfg.SnapshotChunkRows = 512
	}
	if cfg.BatchTx <= 0 {
		cfg.BatchTx = 64
	}
	p := &Primary{
		cfg:       cfg,
		store:     cfg.Store,
		ln:        cfg.Listener,
		schema:    schemaHash(cfg.Store.Schema()),
		epoch:     cfg.Epoch,
		followers: make(map[string]*followerRec),
		done:      make(chan struct{}),
	}
	metricEpoch.Set(float64(p.epoch))
	p.wg.Add(2)
	go p.acceptLoop()
	go p.janitor()
	return p, nil
}

// Addr is the listener's address, for followers to dial.
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// Fenced reports whether this primary observed a higher epoch and
// fenced itself.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced
}

// fence marks the primary fenced: it stops every stream by closing the
// follower connections, refuses all future sessions, and fires OnFenced
// exactly once so the embedding process can demote the store. The
// listener stays up on purpose — an arriving follower gets an explicit
// fError refusal naming the higher epoch, which is a faster signal than
// a connection refused.
func (p *Primary) fence(higher uint64) {
	p.mu.Lock()
	if p.fenced || p.closed {
		p.mu.Unlock()
		return
	}
	p.fenced = true
	for _, rec := range p.followers {
		if rec.conn != nil {
			rec.conn.Close()
		}
	}
	p.mu.Unlock()
	metricFenced.Inc()
	p.logf("repl: fenced: observed epoch %d above our %d; streaming stopped", higher, p.epoch)
	p.fenceOnce.Do(func() {
		if p.cfg.OnFenced != nil {
			// Untracked on purpose: the hook may call back into Close.
			go p.cfg.OnFenced(higher)
		}
	})
}

// Close stops accepting, drops every follower connection and releases
// their retention pins.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	for _, rec := range p.followers {
		if rec.conn != nil {
			rec.conn.Close()
		}
		if rec.pinned {
			p.store.UnpinWAL(pinName(rec.id))
			rec.pinned = false
		}
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func pinName(id string) string { return "repl:" + id }

func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log.Printf(format, args...)
	}
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			// Transient accept errors (including a faulted test
			// listener): keep serving unless closed.
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handleConn(conn)
		}()
	}
}

// janitor enforces MaxLagSegments: any follower whose pin trails the
// durable tail too far loses it (and its connection), bounding primary
// disk regardless of dead followers. The pin floor is driven by acks —
// what the follower has durably applied — so an evicted follower is one
// that genuinely stopped making progress.
func (p *Primary) janitor() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
		}
		durable, err := p.store.DurableLSN()
		if err != nil {
			continue
		}
		p.mu.Lock()
		for _, rec := range p.followers {
			if !rec.pinned || durable.Seq-rec.pinSeq <= p.cfg.MaxLagSegments {
				continue
			}
			p.store.UnpinWAL(pinName(rec.id))
			rec.pinned = false
			rec.evicted = true
			if rec.conn != nil {
				rec.conn.Close()
			}
			metricEvictions.Inc()
			p.logf("repl: evicted follower %q (pinned seq %d, durable seq %d)", rec.id, rec.pinSeq, durable.Seq)
		}
		p.mu.Unlock()
	}
}

// handleConn owns one follower connection: handshake, then a single
// writer loop (stream + heartbeats) with a companion ack reader.
func (p *Primary) handleConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(p.cfg.HandshakeTimeout))
	hello, err := readFrame(conn)
	if err != nil || hello.typ != fHello {
		faultProtocol.Inc()
		return
	}
	id, schema, err := decodeHello(hello.payload)
	if err != nil {
		faultProtocol.Inc()
		return
	}
	if schema != p.schema {
		p.refuse(conn, fmt.Sprintf("schema hash mismatch: primary %016x, follower %016x", p.schema, schema))
		return
	}
	if hello.epoch > p.epoch {
		// The cluster moved on without us: someone was promoted to a
		// higher epoch while we still think we lead. Fence before
		// refusing — we must not ship another frame.
		p.fence(hello.epoch)
		p.refuse(conn, fmt.Sprintf("fenced: follower at epoch %d, we led epoch %d", hello.epoch, p.epoch))
		return
	}
	// A follower from a lower epoch carries a cursor into a superseded
	// timeline; its position is meaningless against our WAL. Force a
	// snapshot bootstrap by discarding the resume cursor.
	resume := hello.lsn
	if hello.epoch < p.epoch {
		p.logf("repl: follower %q at stale epoch %d (ours %d): forcing snapshot bootstrap", id, hello.epoch, p.epoch)
		resume = oltp.WALCursor{}
	}

	p.mu.Lock()
	if p.closed || p.fenced {
		fenced := p.fenced
		p.mu.Unlock()
		if fenced {
			p.refuse(conn, fmt.Sprintf("fenced: this primary's epoch %d was superseded", p.epoch))
		}
		return
	}
	rec := p.followers[id]
	if rec == nil {
		rec = &followerRec{id: id}
		p.followers[id] = rec
	}
	if rec.conn != nil {
		rec.conn.Close() // latest connection wins
	}
	rec.conn = conn
	rec.connected = true
	rec.evicted = false
	p.mu.Unlock()
	metricFollowers.Add(1)
	p.logf("repl: follower %q connected from %s at %s", id, conn.RemoteAddr(), hello.lsn)

	defer func() {
		p.mu.Lock()
		if rec.conn == conn { // a newer connection may have taken over
			rec.conn = nil
			rec.connected = false
			rec.snapping = false
		}
		p.mu.Unlock()
		metricFollowers.Add(-1)
	}()

	// connDone wakes the writer when the ack reader dies.
	connDone := make(chan struct{})
	go p.readAcks(conn, rec, connDone)
	p.stream(conn, rec, resume, connDone)
}

func (p *Primary) refuse(conn net.Conn, msg string) {
	faultProtocol.Inc()
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	writeFrame(conn, frame{typ: fError, epoch: p.epoch, payload: []byte(msg)})
	p.logf("repl: refused follower from %s: %s", conn.RemoteAddr(), msg)
}

// readAcks consumes fAck frames, advancing the follower's lag
// accounting and retention pin.
func (p *Primary) readAcks(conn net.Conn, rec *followerRec, connDone chan struct{}) {
	defer close(connDone)
	for {
		conn.SetReadDeadline(time.Now().Add(10 * p.cfg.HeartbeatEvery))
		fr, err := readFrame(conn)
		if err != nil {
			return
		}
		if fr.typ != fAck {
			faultProtocol.Inc()
			return
		}
		if fr.epoch > p.epoch {
			p.fence(fr.epoch)
			return
		}
		p.mu.Lock()
		if rec.conn == conn {
			rec.acked = fr.lsn
			rec.lastAck = time.Now()
			if !rec.evicted {
				p.store.PinWAL(pinName(rec.id), fr.lsn.Seq)
				rec.pinned = true
				rec.pinSeq = fr.lsn.Seq
			}
		}
		p.mu.Unlock()
	}
}

// stream is the connection's only writer: it bootstraps (snapshot or
// resume), ships committed transactions as they land, and heartbeats
// when caught up.
func (p *Primary) stream(conn net.Conn, rec *followerRec, from oltp.WALCursor, connDone chan struct{}) {
	pin := pinName(rec.id)
	cur := from

	// Resume needs the follower's position still on disk; pin it first,
	// then probe. A zero cursor (fresh follower) always bootstraps.
	needSnap := cur.IsZero()
	if !needSnap {
		p.mu.Lock()
		p.store.PinWAL(pin, cur.Seq)
		rec.pinned, rec.pinSeq = true, cur.Seq
		p.mu.Unlock()
		if _, _, err := p.store.TailWAL(cur, 1); errors.Is(err, oltp.ErrTailGap) {
			needSnap = true
		} else if err != nil {
			return
		}
	}
	if needSnap {
		next, err := p.snapshot(conn, rec, pin)
		if err != nil {
			p.logf("repl: snapshot ship to %q failed: %v", rec.id, err)
			return
		}
		cur = next
	}

	commits := p.store.SubscribeCommits()
	defer p.store.UnsubscribeCommits(commits)
	tick := time.NewTicker(p.cfg.HeartbeatEvery)
	defer tick.Stop()

	for {
		// Ship everything durable past cur.
		for {
			txs, next, err := p.store.TailWAL(cur, p.cfg.BatchTx)
			if err != nil {
				// Pinned segments cannot be swept, so a gap here means
				// our own pin was evicted: drop the conn, the follower
				// will reconnect into a snapshot.
				p.logf("repl: tail for %q failed at %s: %v", rec.id, cur, err)
				return
			}
			if len(txs) == 0 {
				cur = next
				break
			}
			for i := range txs {
				payload, err := oltp.EncodeTxPayload(txs[i])
				if err != nil {
					p.logf("repl: encoding tx for %q: %v", rec.id, err)
					return
				}
				conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
				if err := writeFrame(conn, frame{typ: fTx, epoch: p.epoch, lsn: txs[i].End, payload: payload}); err != nil {
					faultConn.Inc()
					return
				}
				metricTxShipped.Inc()
			}
			cur = txs[len(txs)-1].End
			p.mu.Lock()
			if rec.conn == conn {
				rec.streamed = cur
			}
			p.mu.Unlock()
		}

		select {
		case <-p.done:
			return
		case <-connDone:
			return
		case <-commits:
		case <-tick.C:
			// Caught up: heartbeat carries the streamed-up-to cursor so
			// an idle follower's cursor (and pin) tracks the tail.
			conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			if err := writeFrame(conn, frame{typ: fHeartbeat, epoch: p.epoch, lsn: cur}); err != nil {
				faultConn.Inc()
				return
			}
		}
	}
}

// snapshot ships a full SnapshotWithLSN bootstrap and returns the
// cursor to stream from afterwards. The pin is taken atomically at the
// durable LSN before the snapshot is cut, so the tail from snap.LSN
// onward cannot be swept in between.
func (p *Primary) snapshot(conn net.Conn, rec *followerRec, pin string) (oltp.WALCursor, error) {
	pinCur, err := p.store.PinWALAtDurable(pin)
	if err != nil {
		return oltp.WALCursor{}, err
	}
	p.mu.Lock()
	rec.pinned, rec.pinSeq = true, pinCur.Seq
	rec.snapping = true
	rec.resyncs++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		rec.snapping = false
		p.mu.Unlock()
	}()
	metricResyncs.Inc()

	snap, err := p.store.SnapshotWithLSN()
	if err != nil {
		return oltp.WALCursor{}, err
	}
	n := snap.Table.Len()
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if err := writeFrame(conn, frame{typ: fSnapBegin, epoch: p.epoch, lsn: snap.LSN, payload: encodeSnapBegin(uint64(n))}); err != nil {
		faultConn.Inc()
		return oltp.WALCursor{}, err
	}
	for start := 0; start < n; start += p.cfg.SnapshotChunkRows {
		end := start + p.cfg.SnapshotChunkRows
		if end > n {
			end = n
		}
		chunk := oltp.CommittedTx{Changes: make([]oltp.Change, 0, end-start)}
		for i := start; i < end; i++ {
			chunk.Changes = append(chunk.Changes, oltp.Change{
				Op:  oltp.ChangeInsert,
				ID:  snap.IDs[i],
				Row: snap.Rows[i],
			})
		}
		payload, err := oltp.EncodeTxPayload(chunk)
		if err != nil {
			return oltp.WALCursor{}, err
		}
		conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
		if err := writeFrame(conn, frame{typ: fSnapChunk, epoch: p.epoch, lsn: snap.LSN, payload: payload}); err != nil {
			faultConn.Inc()
			return oltp.WALCursor{}, err
		}
	}
	if len(snap.Meta) > 0 {
		// Meta state (e.g. the findings KB) travels in the bootstrap as
		// one meta change, applied inside the same wipe-and-rebuild
		// transaction as the rows. It does not count toward the announced
		// row total.
		payload, err := oltp.EncodeTxPayload(oltp.CommittedTx{Changes: []oltp.Change{oltp.MetaChange(snap.Meta)}})
		if err != nil {
			return oltp.WALCursor{}, err
		}
		conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
		if err := writeFrame(conn, frame{typ: fSnapChunk, epoch: p.epoch, lsn: snap.LSN, payload: payload}); err != nil {
			faultConn.Inc()
			return oltp.WALCursor{}, err
		}
	}
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if err := writeFrame(conn, frame{typ: fSnapEnd, epoch: p.epoch, lsn: snap.LSN}); err != nil {
		faultConn.Inc()
		return oltp.WALCursor{}, err
	}
	p.logf("repl: shipped snapshot to %q: %d rows at %s", rec.id, n, snap.LSN)
	return snap.LSN, nil
}

// Status reports the primary's view for the /replication endpoint.
func (p *Primary) Status() Status {
	st := Status{
		Role:    "primary",
		Epoch:   p.epoch,
		Addr:    p.ln.Addr().String(),
		Primary: p.ln.Addr().String(),
		Fenced:  p.Fenced(),
	}
	if durable, err := p.store.DurableLSN(); err == nil {
		st.DurableLSN = &durable
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rec := range p.followers {
		fi := FollowerInfo{
			ID:          rec.id,
			Connected:   rec.connected,
			AckedLSN:    rec.acked,
			StreamedLSN: rec.streamed,
			Resyncs:     rec.resyncs,
			Evicted:     rec.evicted,
		}
		switch {
		case rec.evicted:
			fi.State = "evicted"
		case !rec.connected:
			fi.State = "disconnected"
		case rec.snapping:
			fi.State = "snapshotting"
		default:
			fi.State = "streaming"
		}
		if st.DurableLSN != nil && st.DurableLSN.Seq > rec.acked.Seq {
			fi.LagSegments = st.DurableLSN.Seq - rec.acked.Seq
		}
		if !rec.lastAck.IsZero() {
			fi.SecondsSinceAck = now.Sub(rec.lastAck).Seconds()
		}
		st.Followers = append(st.Followers, fi)
	}
	sortFollowers(st.Followers)
	return st
}
