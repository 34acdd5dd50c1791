package main

import (
	"context"

	"repro/internal/source"
	"repro/internal/term"
)

// sourceStats counts what the timing driver saw during one operation.
type sourceStats struct {
	opens, nexts, rows, chunks, retries int
}

// timedCSV wraps the built-in csv record manager and is registered in
// its place through vadalog.Options.RegisterDriver: every Open and Next
// is timed as a span and counted. Errors the driver classifies as
// transient are counted as retries, since the binding layer retries
// exactly those.
type timedCSV struct {
	inner source.CSV
	tr    *tracer
	st    *sourceStats
}

func (d timedCSV) Pushdown(b source.Binding) source.Pushdown { return d.inner.Pushdown(b) }

func (d timedCSV) Open(ctx context.Context, b source.Binding) (source.RecordCursor, error) {
	id := d.tr.begin("source.open")
	cur, err := d.inner.Open(ctx, b)
	d.tr.end(id)
	d.st.opens++
	if err != nil {
		if source.IsTransient(err) {
			d.st.retries++
		}
		return nil, err
	}
	return &timedCursor{cur: cur, tr: d.tr, st: d.st}, nil
}

type timedCursor struct {
	cur source.RecordCursor
	tr  *tracer
	st  *sourceStats
}

func (c *timedCursor) Next(ctx context.Context) ([][]term.Value, error) {
	id := c.tr.begin("source.next")
	chunk, err := c.cur.Next(ctx)
	c.tr.end(id)
	c.st.nexts++
	if err != nil {
		if source.IsTransient(err) {
			c.st.retries++
		}
		return nil, err
	}
	if len(chunk) > 0 {
		c.st.chunks++
		c.st.rows += len(chunk)
	}
	return chunk, nil
}

func (c *timedCursor) Close() error { return c.cur.Close() }
