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
// context (NoKey). Builder.Append runs it on each appended fact and a
// rebuilt warehouse on every fact again, so it must depend only on fact
// row i's own keys and measures.
type FactClassifier func(s *Schema, factRow int) ([]value.Value, error)

// feedbackDim is one grafted dimension and its classifier.
type feedbackDim struct {
	dim      *Dimension
	classify FactClassifier
}

// AddFeedbackDimension creates a dimension named name with the given
// attributes, classifies every existing fact with classify, and attaches
// the resulting key column to the fact table. Subsequent cube builds see
// the feedback dimension exactly like a load-time dimension, and
// Builder.Append classifies the facts it appends.
func (s *Schema) AddFeedbackDimension(name string, attrs []storage.Field, classify FactClassifier) error {
	if _, dup := s.dims[name]; dup {
		return fmt.Errorf("star: dimension %q already exists", name)
	}
	d, err := NewDimension(name, attrs)
	if err != nil {
		return err
	}
	fd := feedbackDim{dim: d, classify: classify}
	keys := make([]Key, s.fact.Len())
	if err := fd.tag(s, keys, 0); err != nil {
		return err
	}
	s.dims[name] = d
	s.fact.dimIdx[name] = len(s.fact.dimNames)
	s.fact.dimNames = append(s.fact.dimNames, name)
	s.fact.keys = append(s.fact.keys, keys)
	s.feedback = append(s.feedback, fd)
	return nil
}

// tag classifies facts from..len(keys)-1 into keys.
func (fd feedbackDim) tag(s *Schema, keys []Key, from int) error {
	for i := from; i < len(keys); i++ {
		tuple, err := fd.classify(s, i)
		if err != nil {
			return fmt.Errorf("star: classifying fact %d for %q: %w", i, fd.dim.Name(), err)
		}
		keys[i] = NoKey
		if tuple == nil {
			continue
		}
		if keys[i], err = fd.dim.AddMember(tuple); err != nil {
			return err
		}
	}
	return nil
}
