package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/kv"
	"repro/kvclient"
)

// env is one set-up deployment: the cluster, the kv store over it and,
// on served workloads, a kvserver on loopback with one kvclient per
// caller.
type env struct {
	w       workload
	dir     string // durability directory, "" when memory-only
	cluster *repro.Cluster
	dep     deployment // the cluster, or the tracer wrapping it
	tr      *tracer    // nil when untraced
	store   *kv.Store
	srv     *kvserver.Server
	served  chan error // Serve's return
	addr    string
	clients []*kvclient.Client
}

// preloadBatch is the number of keys one preload transaction writes.
const preloadBatch = 500

// setup builds the deployment, preloads every key at version 0 and, on
// served workloads, starts the server and connects the clients. traced
// wraps the deployment in the tracer and switches on the deployment's and
// the server's metrics registries.
func setup(w workload, in *inputs, scratch string, traced bool) (*env, error) {
	e := &env{w: w}
	if w.durable {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
	}
	c, err := repro.New(deployConfig(w, e.dir, traced))
	if err != nil {
		e.removeDir()
		return nil, err
	}
	e.cluster, e.dep = c, c
	if traced {
		e.tr = newTracer()
		e.dep = &tracedDB{deployment: c, t: e.tr}
	}
	if err := e.open(); err != nil {
		e.teardown()
		return nil, err
	}
	if err := preload(e.store, in); err != nil {
		e.teardown()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if w.served {
		if err := e.serve(traced); err != nil {
			e.teardown()
			return nil, err
		}
	}
	return e, nil
}

// open opens the kv store over the (possibly traced) deployment.
func (e *env) open() error {
	s, err := kv.Open(e.dep)
	if err != nil {
		return fmt.Errorf("kv.Open: %w", err)
	}
	e.store = s
	return nil
}

func preload(s *kv.Store, in *inputs) error {
	val := make([]byte, valueSize)
	for lo := 0; lo < numKeys; lo += preloadBatch {
		tx, err := s.Begin()
		if err != nil {
			return err
		}
		for k := lo; k < lo+preloadBatch && k < numKeys; k++ {
			in.fillValue(val, k, 0)
			if err := tx.Put(in.keys[k], val); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// serve starts the kvserver on a loopback port and connects one
// single-connection client per caller, each proven live by a ping.
func (e *env) serve(traced bool) error {
	cfg := kvserver.Config{}
	if traced {
		cfg.Obs = obs.NewRegistry()
	}
	e.srv = kvserver.New(e.store, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.addr = l.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(l) }()
	for range e.w.callers {
		cl := kvclient.Dial(e.addr, kvclient.Options{Conns: 1})
		e.clients = append(e.clients, cl)
		if err := cl.Ping(); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
	}
	return nil
}

// stopServing closes the clients and drains the server; the deployment
// stays up.
func (e *env) stopServing() error {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.clients = nil
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// teardown stops everything the env started and removes its files. It
// may be called more than once.
func (e *env) teardown() error {
	err := e.stopServing()
	if e.cluster != nil {
		err = errors.Join(err, e.cluster.Close())
		e.cluster = nil
	}
	return errors.Join(err, e.removeDir())
}

func (e *env) removeDir() error {
	if e.dir == "" {
		return nil
	}
	return os.RemoveAll(e.dir)
}
