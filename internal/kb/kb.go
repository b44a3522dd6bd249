// Package kb implements the Knowledge Base of the DD-DGMS architecture:
// "outcomes ... are initially maintained within the warehouse and
// transferred into a knowledge base when sufficient data-based evidence is
// accumulated." Findings accumulate evidence observations; once a finding
// crosses the promotion threshold it becomes established knowledge, ready
// for guideline development and training.
package kb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Status of a finding in the knowledge lifecycle.
type Status string

// Findings start as candidates and are promoted when evidence suffices.
const (
	Candidate   Status = "candidate"
	Established Status = "established"
	Retracted   Status = "retracted"
)

// Finding is one unit of derived clinical knowledge: a statement, the
// feature of the platform that produced it, and its accumulated evidence.
type Finding struct {
	ID        string    `json:"id"`
	Topic     string    `json:"topic"`
	Statement string    `json:"statement"`
	Source    string    `json:"source"` // e.g. "olap", "mining", "prediction"
	Evidence  int       `json:"evidence"`
	Status    Status    `json:"status"`
	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// Base is an in-memory knowledge base. Durable deployments persist it
// through the OLTP store as events (see Event). It is safe for
// concurrent use.
type Base struct {
	// PromotionThreshold is the evidence count at which a candidate is
	// promoted; 0 means 3.
	PromotionThreshold int

	mu       sync.RWMutex
	findings map[string]*Finding
	seq      int
	now      func() time.Time
}

// New creates an empty knowledge base.
func New(threshold int) *Base {
	if threshold == 0 {
		threshold = 3
	}
	return &Base{
		PromotionThreshold: threshold,
		findings:           make(map[string]*Finding),
		now:                time.Now,
	}
}

// Add records a new candidate finding and returns its id. A finding with
// an identical topic and statement instead gains one evidence observation.
func (b *Base) Add(topic, statement, source string) (string, error) {
	if strings.TrimSpace(statement) == "" {
		return "", fmt.Errorf("kb: empty statement")
	}
	if strings.TrimSpace(topic) == "" {
		return "", fmt.Errorf("kb: empty topic")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.findings {
		if f.Topic == topic && f.Statement == statement && f.Status != Retracted {
			b.reinforceAtLocked(f, b.now())
			return f.ID, nil
		}
	}
	b.seq++
	id := fmt.Sprintf("F%04d", b.seq)
	now := b.now()
	b.findings[id] = &Finding{
		ID: id, Topic: topic, Statement: statement, Source: source,
		Evidence: 1, Status: Candidate, CreatedAt: now, UpdatedAt: now,
	}
	return id, nil
}

// Get returns a copy of a finding.
func (b *Base) Get(id string) (Finding, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	f, ok := b.findings[id]
	if !ok {
		return Finding{}, fmt.Errorf("kb: unknown finding %q", id)
	}
	return *f, nil
}

// Search returns findings whose topic or statement contains the query
// (case-insensitive), sorted by descending evidence then id. Retracted
// findings are excluded.
func (b *Base) Search(query string) []Finding {
	q := strings.ToLower(query)
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Finding
	for _, f := range b.findings {
		if f.Status == Retracted {
			continue
		}
		if q == "" || strings.Contains(strings.ToLower(f.Topic), q) ||
			strings.Contains(strings.ToLower(f.Statement), q) {
			out = append(out, *f)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Evidence != out[b].Evidence {
			return out[a].Evidence > out[b].Evidence
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Established returns all established findings, sorted like Search.
func (b *Base) Established() []Finding {
	all := b.Search("")
	out := all[:0]
	for _, f := range all {
		if f.Status == Established {
			out = append(out, f)
		}
	}
	return out
}

// Len reports the number of non-retracted findings.
func (b *Base) Len() int {
	return len(b.Search(""))
}

// persisted is the state image an EvState event carries.
type persisted struct {
	PromotionThreshold int        `json:"promotion_threshold"`
	Seq                int        `json:"seq"`
	Findings           []*Finding `json:"findings"`
}

// sortPersisted orders findings by id so encodings are deterministic.
func sortPersisted(p *persisted) {
	sort.Slice(p.Findings, func(a, c int) bool { return p.Findings[a].ID < p.Findings[c].ID })
}
