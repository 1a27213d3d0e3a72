package client

import (
	"fmt"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/wire"
)

// This file holds the catalog calls: runtime query registration, EXPLAIN,
// and the QueryID-routed reads.

// Register registers a query at runtime and returns its EXPLAIN — the
// assigned QueryID, the planner's strategy and index choice, and which
// already-registered queries share the underlying index.
func (c *Client) Register(sql string) (catalog.Explain, error) {
	r, err := c.roundtrip(wire.MsgRegister, wire.EncodeRegister(nil, sql))
	if err != nil {
		return catalog.Explain{}, err
	}
	if r.t != wire.MsgRegistered {
		return catalog.Explain{}, fmt.Errorf("wire client: register got reply %s", r.t)
	}
	return wire.DecodeExplain(r.body)
}

// Unregister removes a registered query by QueryID.
func (c *Client) Unregister(id catalog.QueryID) error {
	r, err := c.roundtrip(wire.MsgUnregister, wire.EncodeQueryID(nil, id))
	if err != nil {
		return err
	}
	_, err = wire.DecodeAck(r.body)
	return err
}

// ListQueries returns every registered query's EXPLAIN, ordered by QueryID.
func (c *Client) ListQueries() ([]catalog.Explain, error) {
	r, err := c.roundtrip(wire.MsgListQueries, nil)
	if err != nil {
		return nil, err
	}
	if r.t != wire.MsgQueryList {
		return nil, fmt.Errorf("wire client: list-queries got reply %s", r.t)
	}
	return wire.DecodeQueryList(r.body)
}

// ExplainQuery returns one registered query's EXPLAIN.
func (c *Client) ExplainQuery(id catalog.QueryID) (catalog.Explain, error) {
	r, err := c.roundtrip(wire.MsgExplain, wire.EncodeQueryID(nil, id))
	if err != nil {
		return catalog.Explain{}, err
	}
	if r.t != wire.MsgExplained {
		return catalog.Explain{}, fmt.Errorf("wire client: explain got reply %s", r.t)
	}
	return wire.DecodeExplain(r.body)
}

// ResultQuery reads one registered query's scalar result.
func (c *Client) ResultQuery(id catalog.QueryID) (float64, error) {
	r, err := c.roundtrip(wire.MsgResultQ, wire.EncodeQueryID(nil, id))
	if err != nil {
		return 0, err
	}
	return wire.DecodeScalar(r.body)
}

// ResultGroupedQuery reads one registered query's grouped results.
func (c *Client) ResultGroupedQuery(id catalog.QueryID) ([]engine.GroupResult, error) {
	r, err := c.roundtrip(wire.MsgGroupedQ, wire.EncodeQueryID(nil, id))
	if err != nil {
		return nil, err
	}
	return wire.DecodeGrouped(r.body)
}
