package stream

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestProduceThenConsume(t *testing.T) {
	s := NewStore()
	s.Produce("/f0", []byte("data"))
	got, err := s.Consume(context.Background(), "/f0")
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("consume = %q, %v", got, err)
	}
	p, c := s.Stats()
	if p != 1 || c != 1 {
		t.Fatalf("stats %d/%d", p, c)
	}
}

func TestConsumeBlocksUntilProduce(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	var err error
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		got, err = s.Consume(context.Background(), "/late")
	}()
	<-started
	time.Sleep(10 * time.Millisecond)
	s.Produce("/late", []byte("finally"))
	wg.Wait()
	if err != nil || string(got) != "finally" {
		t.Fatalf("consume = %q, %v", got, err)
	}
}

func TestConsumeContextCancel(t *testing.T) {
	s := NewStore()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Consume(ctx, "/never"); err == nil {
		t.Fatal("consume of never-produced path returned without error")
	}
}

func TestManyConcurrentPairs(t *testing.T) {
	s := NewStore()
	const pairs, frames = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, pairs)
	for p := 0; p < pairs; p++ {
		p := p
		wg.Add(2)
		go func() { // producer
			defer wg.Done()
			for f := 0; f < frames; f++ {
				s.Produce(fmt.Sprintf("/p%d/f%d", p, f), []byte{byte(p), byte(f)})
			}
		}()
		go func() { // consumer
			defer wg.Done()
			for f := 0; f < frames; f++ {
				got, err := s.Consume(context.Background(), fmt.Sprintf("/p%d/f%d", p, f))
				if err != nil || got[0] != byte(p) || got[1] != byte(f) {
					errs <- fmt.Errorf("pair %d frame %d: %v %v", p, f, got, err)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for p := 0; p < pairs; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	produced, consumed := s.Stats()
	if produced != pairs*frames || consumed != pairs*frames {
		t.Fatalf("stats %d/%d, want %d each", produced, consumed, pairs*frames)
	}
}

func TestTryConsumeAndDiscard(t *testing.T) {
	s := NewStore()
	s.Produce("/x", []byte("v"))
	s.Discard("/x")
	if s.Len() != 0 {
		t.Fatalf("len %d after discard", s.Len())
	}
}

func TestReplaceKeepsConsumersUnblocked(t *testing.T) {
	s := NewStore()
	s.Produce("/x", []byte("v1"))
	s.Produce("/x", []byte("v2"))
	got, err := s.Consume(context.Background(), "/x")
	if err != nil || string(got) != "v2" {
		t.Fatalf("consume = %q, %v", got, err)
	}
}
