package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"github.com/ddgms/ddgms/internal/repl"
)

// Replication roles on top of follow mode. A primary platform serves
// queries AND ships its WAL to followers; a replica platform applies
// the shipped stream into its own local store, which follow mode then
// consumes exactly as if the writes were local — the replica answers
// /query at full speed from its own warehouse while refusing local
// writes.
//
// With self-healing enabled (EnableSelfHeal), role transitions that
// used to be operator actions run themselves, all from one watchdog:
//
//	follower --feed silent for RehomeAfter--> re-home to a successor,
//	                                          or stand for election
//	candidate --majority of votes--> primary at the epoch it won
//	primary --higher epoch seen--> demote --> rejoin --> follower
//
// Re-homing and rejoining go through the ordinary snapshot-bootstrap
// path; the election rules live in repl (vote.go).

// ReplicateListenConfig parameterises AttachPrimary.
type ReplicateListenConfig struct {
	// Listener accepts follower connections; required.
	Listener net.Listener
	// EpochDir, when set, persists the replication epoch durably so a
	// restarted primary still knows which epoch it led (and a fenced one
	// cannot forget it was superseded).
	EpochDir string
	// MaxLagSegments evicts followers beyond this WAL-segment lag
	// (repl.PrimaryConfig). 0 means the repl default.
	MaxLagSegments uint64
	// HeartbeatEvery overrides the heartbeat cadence; 0 means default.
	HeartbeatEvery time.Duration
}

// AttachPrimary starts shipping this platform's WAL to followers. The
// store must be durable.
func (p *Platform) AttachPrimary(cfg ReplicateListenConfig) error {
	if p.store == nil {
		return fmt.Errorf("core: no store to replicate")
	}
	p.replMu.Lock()
	defer p.replMu.Unlock()
	if p.replPrimary != nil || p.replFollower != nil {
		return fmt.Errorf("core: replication already attached")
	}
	pr, err := repl.StartPrimary(repl.PrimaryConfig{
		Store:          p.store,
		Listener:       cfg.Listener,
		Dir:            cfg.EpochDir,
		OnFenced:       p.demoteOnFence,
		MaxLagSegments: cfg.MaxLagSegments,
		HeartbeatEvery: cfg.HeartbeatEvery,
		Log:            p.cfg.Log,
	})
	if err != nil {
		return fmt.Errorf("core: starting replication primary: %w", err)
	}
	p.replPrimary = pr
	return nil
}

// demoteOnFence is the primary's OnFenced hook: a higher epoch appeared
// on the wire, so this node's leadership is over. The store drops back
// into replica mode immediately — accepting even one more local write
// would fork the timeline the cluster has moved to. Without self-heal
// configured, the fenced Primary object stays attached so /replication
// keeps reporting fenced=true and rejoining is an operator action; with
// it, the node re-homes itself (see rejoin).
func (p *Platform) demoteOnFence(higher uint64) {
	p.store.SetReplica(true)
	if p.cfg.Log != nil {
		p.cfg.Log.Printf("core: fenced at epoch %d: store demoted to replica mode, local writes refused", higher)
	}
	p.replMu.Lock()
	sh, stop := p.selfHeal, p.selfHealStop
	start := sh != nil && stop != nil && !p.healBusy
	if start {
		p.healBusy = true
		p.selfHealWG.Add(1)
	}
	p.replMu.Unlock()
	if start {
		go p.rejoin(sh, stop, higher)
	}
}

// PromoteConfig parameterises Promote.
type PromoteConfig struct {
	// Listener accepts re-homing followers; required.
	Listener net.Listener
	// MaxLagSegments / HeartbeatEvery tune the new primary; zero means
	// the repl defaults.
	MaxLagSegments uint64
	HeartbeatEvery time.Duration
}

// Promote turns this replica platform into the primary of the next
// epoch: the replication session stops, the local WAL tail is verified
// end to end, the store leaves replica mode (local commits are accepted
// again) and a replication listener comes up for surviving followers to
// re-home to. The follow-mode refresh pipeline keeps running
// throughout — local commits feed CDC exactly as replicated ones did.
func (p *Platform) Promote(cfg PromoteConfig) error {
	p.replMu.Lock()
	defer p.replMu.Unlock()
	return p.promoteLocked(cfg, 0)
}

// promoteLocked promotes to lead epoch, 0 meaning the next one.
func (p *Platform) promoteLocked(cfg PromoteConfig, epoch uint64) error {
	if p.replFollower == nil {
		return fmt.Errorf("core: not a replica; nothing to promote")
	}
	pr, err := repl.Promote(repl.PromoteConfig{
		Follower:       p.replFollower,
		Listener:       cfg.Listener,
		Epoch:          epoch,
		OnFenced:       p.demoteOnFence,
		MaxLagSegments: cfg.MaxLagSegments,
		HeartbeatEvery: cfg.HeartbeatEvery,
		Log:            p.cfg.Log,
	})
	if err != nil {
		return fmt.Errorf("core: promoting replica: %w", err)
	}
	p.replFollower = nil
	p.replPrimary = pr
	return nil
}

// PromoteToPrimary is the HTTP-admin form of Promote: it binds the
// given replication listen address itself and promotes, returning the
// new primary's status. This is what POST /promote calls, so an
// operator can cut a replica over with one request against the node.
func (p *Platform) PromoteToPrimary(listenAddr string) (repl.Status, error) {
	return p.promoteOn(listenAddr, 0)
}

// promoteOn binds listenAddr and promotes to lead epoch (0: the next).
func (p *Platform) promoteOn(listenAddr string, epoch uint64) (repl.Status, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return repl.Status{}, fmt.Errorf("core: promote listener: %w", err)
	}
	p.replMu.Lock()
	defer p.replMu.Unlock()
	if err := p.promoteLocked(PromoteConfig{Listener: ln}, epoch); err != nil {
		ln.Close()
		return repl.Status{}, err
	}
	return p.replPrimary.Status(), nil
}

// SetPromoteListen records the replication listener address this node
// binds if promoted. It is the default for a POST /promote with no
// listen field, and with self-heal enabled it is what lets the node
// stand for election.
func (p *Platform) SetPromoteListen(addr string) {
	p.replMu.Lock()
	p.promoteListen = addr
	p.replMu.Unlock()
}

// PromoteListenAddr reports the configured default promote listener.
func (p *Platform) PromoteListenAddr() string {
	p.replMu.Lock()
	defer p.replMu.Unlock()
	return p.promoteListen
}

// RehomeReplica points a replica platform's follower at a different
// primary (after a promotion elsewhere). No-op on non-replicas.
func (p *Platform) RehomeReplica(addr string) {
	p.replMu.Lock()
	defer p.replMu.Unlock()
	if p.replFollower != nil {
		p.replFollower.Rehome(addr)
	}
}

// ReplicateFromConfig parameterises AttachReplica.
type ReplicateFromConfig struct {
	// PrimaryAddr is the primary's replication listener; required.
	PrimaryAddr string
	// ID is this replica's stable identity at the primary; required.
	ID string
	// CursorDir persists the replication cursor; empty keeps it in
	// memory (every restart re-bootstraps).
	CursorDir string
	// HeartbeatTimeout overrides the staleness teardown; 0 means the
	// repl default.
	HeartbeatTimeout time.Duration
}

// AttachReplica connects this platform's store to a primary and applies
// the shipped stream. The store is switched into replica mode: local
// commits are refused for the follower's lifetime. Callers typically
// wait on ReplicaReady before StartFollow so the warehouse does not
// bootstrap from an empty store.
func (p *Platform) AttachReplica(cfg ReplicateFromConfig) error {
	if p.store == nil {
		return fmt.Errorf("core: no store to replicate into")
	}
	p.replMu.Lock()
	defer p.replMu.Unlock()
	return p.attachReplicaLocked(cfg)
}

func (p *Platform) attachReplicaLocked(cfg ReplicateFromConfig) error {
	if p.replPrimary != nil || p.replFollower != nil {
		return fmt.Errorf("core: replication already attached")
	}
	f, err := repl.StartFollower(repl.FollowerConfig{
		Store:            p.store,
		Dir:              cfg.CursorDir,
		PrimaryAddr:      cfg.PrimaryAddr,
		ID:               cfg.ID,
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		Log:              p.cfg.Log,
	})
	if err != nil {
		return fmt.Errorf("core: starting replication follower: %w", err)
	}
	p.replFollower = f
	return nil
}

// ReplicaReady exposes the follower's caught-up signal (nil when not a
// replica): closed once the local store first reflects the primary as
// of some recent LSN.
func (p *Platform) ReplicaReady() <-chan struct{} {
	p.replMu.Lock()
	defer p.replMu.Unlock()
	if p.replFollower == nil {
		return nil
	}
	return p.replFollower.Ready()
}

// Replication reports replication health for the /replication
// endpoint; ok is false when neither role is attached.
func (p *Platform) Replication() (repl.Status, bool) {
	p.replMu.Lock()
	defer p.replMu.Unlock()
	switch {
	case p.replPrimary != nil:
		return p.replPrimary.Status(), true
	case p.replFollower != nil:
		return p.replFollower.Status(), true
	default:
		return repl.Status{}, false
	}
}

// StopReplication detaches either role. Safe to call when none is
// attached.
func (p *Platform) StopReplication() {
	p.replMu.Lock()
	defer p.replMu.Unlock()
	if p.replPrimary != nil {
		p.replPrimary.Close()
		p.replPrimary = nil
	}
	if p.replFollower != nil {
		p.replFollower.Close()
		p.replFollower = nil
	}
}

// SelfHealConfig parameterises automatic role recovery and election.
type SelfHealConfig struct {
	// Peers are the base HTTP URLs of the cluster's other nodes, polled
	// on /replication to discover the current primary and asked for
	// votes on /replication/vote. Not a routing front: an election needs
	// a strict majority of len(Peers)+1 nodes. Required.
	Peers []string
	// ID is this node's stable replica identity when it re-homes;
	// required.
	ID string
	// CursorDir persists the re-homed follower's cursor and this node's
	// vote record; usually the same directory as the primary-side epoch
	// file, so fencing correctness keeps the max of both records.
	CursorDir string
	// HeartbeatTimeout tunes the re-homed follower; 0 means default.
	HeartbeatTimeout time.Duration
	// BackoffMin/BackoffMax bound the capped, jittered retry delay while
	// discovery finds no primary, and between lost elections. Defaults
	// 500ms / 10s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// ProbeTimeout bounds each discovery or vote request. Default 2s.
	ProbeTimeout time.Duration
	// RehomeAfter is the failure detector: how long a follower's feed
	// must be silent before it looks for a successor primary, stands for
	// election, or grants a vote. Default 5s.
	RehomeAfter time.Duration
	// WatchEvery is the watchdog cadence. Default 1s.
	WatchEvery time.Duration
	// Client issues discovery and vote requests; nil builds a default.
	Client *http.Client
}

// silent reports whether a follower's feed has been down long enough
// to stand, vote, or re-home.
func (sh *SelfHealConfig) silent(st repl.Status) bool {
	return !st.Connected && st.SecondsSinceFrame >= sh.RehomeAfter.Seconds()
}

// backoff returns a jittered wait (up to +50%, so a fleet does not
// retry in lockstep) around d, and the doubled, capped next delay.
func (sh *SelfHealConfig) backoff(d time.Duration) (wait, next time.Duration) {
	return d + time.Duration(rand.Int63n(int64(d)/2+1)), min(2*d, sh.BackoffMax)
}

// EnableSelfHeal arms autonomous role recovery on this platform: a
// fenced ex-primary demotes and re-homes itself, and a follower whose
// primary stays unreachable past RehomeAfter re-homes to a successor or,
// with a promote listener set, stands for election. Call once, before
// or after attaching a role; Close (or StopSelfHeal) disarms it.
func (p *Platform) EnableSelfHeal(cfg SelfHealConfig) error {
	if len(cfg.Peers) == 0 {
		return fmt.Errorf("core: self-heal requires at least one peer URL")
	}
	if cfg.ID == "" {
		return fmt.Errorf("core: self-heal requires a replica id")
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 10 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.RehomeAfter <= 0 {
		cfg.RehomeAfter = 5 * time.Second
	}
	if cfg.WatchEvery <= 0 {
		cfg.WatchEvery = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	ballot, err := repl.OpenBallot(cfg.CursorDir)
	if err != nil {
		return fmt.Errorf("core: self-heal: %w", err)
	}
	p.replMu.Lock()
	defer p.replMu.Unlock()
	if p.selfHeal != nil {
		return fmt.Errorf("core: self-heal already enabled")
	}
	p.selfHeal = &cfg
	p.ballot = ballot
	p.selfHealStop = make(chan struct{})
	p.selfHealWG.Add(1)
	go p.selfHealWatch(&cfg, p.selfHealStop)
	return nil
}

// StopSelfHeal disarms self-healing and waits for any in-flight rejoin
// to wind down. Safe to call when never enabled.
func (p *Platform) StopSelfHeal() {
	p.replMu.Lock()
	stop := p.selfHealStop
	p.selfHealStop = nil
	p.selfHeal = nil
	p.replMu.Unlock()
	if stop != nil {
		close(stop)
		p.selfHealWG.Wait()
	}
}

// rejoin is the superseded ex-primary's recovery loop: the primary
// session is torn down in place, then discovery polls the peers until
// a primary leading at least minEpoch — the epoch that superseded us —
// appears, and the node attaches as an ordinary replica. Meanwhile it
// votes for any candidate above minEpoch, so its vote can elect that
// primary when none is left. The existing snapshot-bootstrap path
// heals the diverged timeline: any writes this node committed past the
// new primary's fork point are wiped and rebuilt from its snapshot.
func (p *Platform) rejoin(sh *SelfHealConfig, stop chan struct{}, minEpoch uint64) {
	defer p.selfHealWG.Done()
	defer func() {
		p.replMu.Lock()
		p.healBusy = false
		p.replMu.Unlock()
	}()

	p.replMu.Lock()
	if p.replPrimary != nil {
		p.replPrimary.Close()
		p.replPrimary = nil
	}
	p.rejoinEpoch = minEpoch
	p.replMu.Unlock()
	p.logf("core: self-heal: superseded primary session torn down; discovering successor (epoch >= %d)", minEpoch)

	backoff := sh.BackoffMin
	for {
		select {
		case <-stop:
			return
		default:
		}
		if addr := successor(p.peerStatuses(sh), minEpoch); addr != "" {
			p.replMu.Lock()
			var err error
			attached := false
			if p.replPrimary == nil && p.replFollower == nil {
				err = p.attachReplicaLocked(ReplicateFromConfig{
					PrimaryAddr:      addr,
					ID:               sh.ID,
					CursorDir:        sh.CursorDir,
					HeartbeatTimeout: sh.HeartbeatTimeout,
				})
				attached = err == nil
			}
			p.replMu.Unlock()
			if attached {
				p.logf("core: self-heal: re-homed as follower of %s", addr)
				return
			}
			if err == nil {
				// A role reappeared underneath us (operator action);
				// nothing left to heal.
				return
			}
			p.logf("core: self-heal: attach to %s failed: %v", addr, err)
		}
		var wait time.Duration
		wait, backoff = sh.backoff(backoff)
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
	}
}

// selfHealWatch is the role watchdog and the cluster's one failure
// detector. On a follower whose feed has been silent past RehomeAfter:
// a peer primary leading its epoch or a later one, at another address,
// is a successor to re-home to (one epoch has one leader, so a
// same-epoch primary elsewhere is the one it lost track of); with none,
// the node stands for election if it may (stand), backing off after
// each lost round. A mere network blip never re-homes — the primary it
// follows answering discovery is not a successor. On a primary: any
// peer reporting a higher epoch, follower or primary, is authoritative
// proof this node's leadership ended (epochs are fencing terms), so it
// demotes and rejoins even if nothing ever dialed its replication
// listener to fence it on the wire — the case of an isolated
// ex-primary that returns after the cluster has moved on.
func (p *Platform) selfHealWatch(sh *SelfHealConfig, stop chan struct{}) {
	defer p.selfHealWG.Done()
	tick := time.NewTicker(sh.WatchEvery)
	defer tick.Stop()
	backoff, nextStand := sh.BackoffMin, time.Time{}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		p.replMu.Lock()
		pr, f := p.replPrimary, p.replFollower
		busy := p.healBusy
		p.replMu.Unlock()
		if busy {
			continue
		}
		if pr != nil {
			st := pr.Status()
			var seen uint64
			for _, ps := range p.peerStatuses(sh) {
				seen = max(seen, ps.Epoch)
			}
			if seen > st.Epoch {
				// Stop accepting local writes before anything else: every
				// commit past this instant would fork the superseded
				// timeline further.
				p.store.SetReplica(true)
				p.logf("core: self-heal: a peer is at epoch %d above ours %d; demoting in place", seen, st.Epoch)
				p.replMu.Lock()
				start := !p.healBusy
				if start {
					p.healBusy = true
					p.selfHealWG.Add(1)
				}
				p.replMu.Unlock()
				if start {
					go p.rejoin(sh, stop, seen)
				}
			}
			continue
		}
		if f == nil {
			continue
		}
		st := f.Status()
		if !sh.silent(st) {
			backoff, nextStand = sh.BackoffMin, time.Time{}
			continue
		}
		peers := p.peerStatuses(sh)
		if addr := successor(peers, st.Epoch); addr != "" {
			if addr != st.Primary {
				p.logf("core: self-heal: primary %s unreachable for %.1fs; re-homing to %s",
					st.Primary, st.SecondsSinceFrame, addr)
				p.RehomeReplica(addr)
			}
			continue
		}
		if time.Now().Before(nextStand) {
			continue
		}
		if p.stand(sh, st, peers) {
			var wait time.Duration
			wait, backoff = sh.backoff(backoff)
			nextStand = time.Now().Add(wait)
		}
	}
}

// stand runs one election round for a silent follower with status st
// whose peers know no successor: when the node has a promote listener
// and no reachable follower outranks it, it votes for itself at the
// next epoch, asks every peer for a vote, and on a strict majority
// promotes at exactly that epoch. It reports whether an election was
// held and lost, so the caller backs off before the next one.
func (p *Platform) stand(sh *SelfHealConfig, st repl.Status, peers []repl.Status) (lost bool) {
	listen := p.PromoteListenAddr()
	if listen == "" {
		return false
	}
	self := repl.Candidate{ID: st.ID, Epoch: st.Epoch, Cursor: *st.Cursor}
	var rivals []repl.Candidate
	for _, ps := range peers {
		if ps.Role == "follower" && ps.Cursor != nil {
			rivals = append(rivals, repl.Candidate{ID: ps.ID, Epoch: ps.Epoch, Cursor: *ps.Cursor})
		}
	}
	if !repl.Stands(self, rivals) {
		return false
	}
	epoch, err := p.ballot.Stand(st.Epoch)
	if err != nil {
		p.logf("core: election: recording own vote: %v", err)
		return true
	}
	req := repl.VoteRequest{Epoch: epoch, ID: st.ID, Follows: st.Epoch, Cursor: *st.Cursor}
	nodes, votes := len(sh.Peers)+1, 1
	for _, peer := range sh.Peers {
		if repl.Elected(votes, nodes) {
			break
		}
		var reply repl.VoteReply
		if err := callPeer(sh, http.MethodPost, peer+"/replication/vote", req, &reply); err != nil {
			continue
		}
		p.ballot.Saw(reply)
		if reply.Granted {
			votes++
		}
	}
	// A vote granted meanwhile to a rival's higher epoch concedes ours.
	if !repl.Elected(votes, nodes) || p.ballot.Voted() != epoch {
		p.logf("core: election for epoch %d lost with %d of %d votes", epoch, votes, nodes)
		return true
	}
	if _, err := p.promoteOn(listen, epoch); err != nil {
		p.logf("core: election for epoch %d won but promotion failed: %v", epoch, err)
		return true
	}
	p.logf("core: elected primary at epoch %d with %d of %d votes", epoch, votes, nodes)
	return false
}

// Vote answers a peer's POST /replication/vote through the ballot's
// grant rule, as this node stands right now. A node without self-heal
// takes no part in elections.
func (p *Platform) Vote(req repl.VoteRequest) (repl.VoteReply, error) {
	p.replMu.Lock()
	sh, pr, f, ballot := p.selfHeal, p.replPrimary, p.replFollower, p.ballot
	rejoining, rejoinEpoch := p.healBusy && pr == nil, p.rejoinEpoch
	p.replMu.Unlock()
	if sh == nil {
		return repl.VoteReply{}, fmt.Errorf("core: not electing: self-heal is off")
	}
	var v repl.Voter
	switch {
	case f != nil:
		st := f.Status()
		v = repl.Voter{Follower: true, Silent: sh.silent(st), Epoch: st.Epoch, Cursor: *st.Cursor}
	case rejoining:
		v = repl.Voter{Rejoining: true, Epoch: rejoinEpoch}
	}
	return ballot.Grant(v, req)
}

// peerStatuses polls every peer's /replication; unreachable peers are
// left out.
func (p *Platform) peerStatuses(sh *SelfHealConfig) []repl.Status {
	var out []repl.Status
	for _, peer := range sh.Peers {
		var st repl.Status
		if err := callPeer(sh, http.MethodGet, peer+"/replication", nil, &st); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// successor returns the replication address of the highest-epoch
// non-fenced primary leading at least minEpoch ("" when none).
func successor(peers []repl.Status, minEpoch uint64) string {
	addr, best := "", minEpoch
	for _, st := range peers {
		if st.Role == "primary" && !st.Fenced && st.Epoch >= best && st.Addr != "" {
			addr, best = st.Addr, st.Epoch
		}
	}
	return addr
}

// callPeer issues one JSON request to a peer (in is nil for a GET) and
// decodes a 200 answer into out.
func callPeer(sh *SelfHealConfig, method, url string, in, out any) error {
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), sh.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, &body)
	if err != nil {
		return err
	}
	resp, err := sh.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("core: %s %s answered %d", method, url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (p *Platform) logf(format string, args ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log.Printf(format, args...)
	}
}
