package star

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// The paper's closed loop: "Further dimensions are introduced to capture
// user feedback. Information on aggregates and trends derived by clinicians
// as well as clinical outcomes can be translated back to the warehouse as
// dimensions to be used in future analysis." AddFeedbackDimension grafts a
// new dimension onto an existing schema and tags every fact through a
// classifier function, without touching the original dimensions or
// measures.

// FactClassifier assigns fact row i to a feedback-dimension member (by
// attribute tuple). Returning nil marks the fact as having no feedback
// context (NoKey).
type FactClassifier func(s *Schema, factRow int) ([]value.Value, error)

// AddFeedbackDimension creates a dimension named name with the given
// attributes, classifies every existing fact with classify, and attaches
// the resulting key column to the fact table. Subsequent cube builds see
// the feedback dimension exactly like a load-time dimension.
func (s *Schema) AddFeedbackDimension(name string, attrs []storage.Field, classify FactClassifier) error {
	if _, dup := s.dims[name]; dup {
		return fmt.Errorf("star: dimension %q already exists", name)
	}
	d, err := NewDimension(name, attrs)
	if err != nil {
		return err
	}
	keys := make([]Key, s.fact.Len())
	for i := 0; i < s.fact.Len(); i++ {
		tuple, err := classify(s, i)
		if err != nil {
			return fmt.Errorf("star: classifying fact %d for %q: %w", i, name, err)
		}
		if tuple == nil {
			keys[i] = NoKey
			continue
		}
		k, err := d.AddMember(tuple)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	s.dims[name] = d
	s.fact.dimIdx[name] = len(s.fact.dimNames)
	s.fact.dimNames = append(s.fact.dimNames, name)
	s.fact.keys = append(s.fact.keys, keys)
	return nil
}
