package main

// The load generator: one process, at most Conns connections (one
// httpserve.Client per load worker, each used by one goroutine at a
// time), driving the one-at-a-time read phase, the closed-loop
// saturation phase and the one-at-a-time update phase.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpserve"
)

// matchOutcome is one match request's result.
type matchOutcome struct {
	Op *matchOp
	// Sent is when the request was sent, Done when its response was
	// fully decoded.
	Sent, Done time.Time
	Err        error
	Answers    []httpserve.Answer
	Total      int
}

// putOutcome is one admin PUT's result.
type putOutcome struct {
	Op         *putOp
	Sent, Done time.Time
	Err        error
}

// loader owns the generator's connections.
type loader struct {
	clients []*httpserve.Client
	delta   float64
}

// newLoader opens conns clients to addr.
func newLoader(addr, token string, conns int, delta float64) *loader {
	l := &loader{delta: delta}
	for i := 0; i < conns; i++ {
		l.clients = append(l.clients, httpserve.NewClient(addr, token))
	}
	return l
}

// close releases every pooled connection.
func (l *loader) close() {
	for _, c := range l.clients {
		c.Close()
	}
}

// match sends one request on client c.
func (l *loader) match(ctx context.Context, c *httpserve.Client, m *matchOp) *matchOutcome {
	o := &matchOutcome{Op: m, Sent: time.Now()}
	res, err := c.Match(ctx, m.Tenant, m.request(l.delta))
	o.Done = time.Now()
	if err != nil {
		o.Err = err
		return o
	}
	o.Answers, o.Total = res.Answers, res.Stats.Answers
	return o
}

// put sends one full-repository PUT on client c.
func (l *loader) put(ctx context.Context, c *httpserve.Client, u *putOp) *putOutcome {
	o := &putOutcome{Op: u, Sent: time.Now()}
	o.Err = c.UpdateTenant(ctx, u.Tenant, u.Repo)
	o.Done = time.Now()
	return o
}

// phaseResult collects one phase's outcomes.
type phaseResult struct {
	Matches []*matchOutcome
	Puts    []*putOutcome
	// Start and End bound the phase.
	Start, End time.Time
}

// rate returns the phase's successful reads per second.
func (res *phaseResult) rate() float64 {
	ok := 0
	for _, o := range res.Matches {
		if o.Err == nil {
			ok++
		}
	}
	return float64(ok) / res.End.Sub(res.Start).Seconds()
}

// saturate sends ms closed loop over every connection: each connection
// sends the next read as soon as its previous one completes.
func (l *loader) saturate(ctx context.Context, ms []*matchOp) *phaseResult {
	outs := make([]*matchOutcome, len(ms))
	var next atomic.Int64
	res := &phaseResult{Start: time.Now()}
	var wg sync.WaitGroup
	wg.Add(len(l.clients))
	for _, c := range l.clients {
		go func(c *httpserve.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ms) {
					return
				}
				outs[i] = l.match(ctx, c, ms[i])
			}
		}(c)
	}
	wg.Wait()
	res.End = time.Now()
	res.Matches = outs
	return res
}

// sequential sends ms and then us one after another on one connection.
func (l *loader) sequential(ctx context.Context, ms []*matchOp, us []*putOp) *phaseResult {
	res := &phaseResult{Start: time.Now()}
	for _, m := range ms {
		res.Matches = append(res.Matches, l.match(ctx, l.clients[0], m))
	}
	for _, u := range us {
		res.Puts = append(res.Puts, l.put(ctx, l.clients[0], u))
	}
	res.End = time.Now()
	return res
}

// add appends another phase's outcomes to res.
func (res *phaseResult) add(o *phaseResult) {
	res.Matches = append(res.Matches, o.Matches...)
	res.Puts = append(res.Puts, o.Puts...)
}
