// Package stream is a real-time, in-process implementation of DYAD's
// producer/consumer contract: a staged store with automatic
// synchronization. Producers publish named payloads and never block on
// consumers; consumers block until the named payload exists. It is the
// wall-clock counterpart of internal/dyad (which runs in simulated time)
// and powers the runnable examples that pipe a real MD engine into real
// in situ analytics.
package stream

import (
	"context"
	"fmt"
	"sync"
)

// Store is a concurrency-safe staged payload store. The zero value is not
// usable; create one with NewStore.
type Store struct {
	mu      sync.Mutex
	files   map[string][]byte
	arrived map[string]chan struct{}

	produced int64
	consumed int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		files:   make(map[string][]byte),
		arrived: make(map[string]chan struct{}),
	}
}

// Produce publishes data under path, waking any waiting consumers.
// Publishing the same path twice replaces the payload (a second wake is
// unnecessary: the channel is already closed).
func (s *Store) Produce(path string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[path] = data
	s.produced++
	if ch, ok := s.arrived[path]; ok {
		select {
		case <-ch:
			// already closed
		default:
			close(ch)
		}
	} else {
		ch := make(chan struct{})
		close(ch)
		s.arrived[path] = ch
	}
}

// Consume blocks until path has been produced, then returns its payload.
// The context bounds the wait.
func (s *Store) Consume(ctx context.Context, path string) ([]byte, error) {
	s.mu.Lock()
	ch, ok := s.arrived[path]
	if !ok {
		ch = make(chan struct{})
		s.arrived[path] = ch
	}
	s.mu.Unlock()

	select {
	case <-ch:
	case <-ctx.Done():
		return nil, fmt.Errorf("stream: consume %s: %w", path, ctx.Err())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("stream: consume %s: payload retracted", path)
	}
	s.consumed++
	return data, nil
}

// Discard removes a consumed payload to bound memory in long pipelines.
func (s *Store) Discard(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, path)
}

// Stats reports produced and consumed counts.
func (s *Store) Stats() (produced, consumed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.produced, s.consumed
}

// Len returns the number of staged payloads.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
