package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/proxy"
	"repro/internal/secure"
)

// Deployment settings, as cmd/dspd and cmd/gatewayd default them.
const (
	dspdCacheBytes    = 64 << 20 // dspd -cache-mb 64
	gatewayCacheBytes = 32 << 20 // gatewayd -cache-mb 32
	gatewayPrefetch   = 8        // gatewayd -prefetch 8
)

// docKey is gatewayd's -auto-keys convention: every document key is
// derived from its id.
func docKey(doc string) secure.DocKey { return secure.KeyFromSeed(doc) }

// rig is the shipped deployment assembled in one process over loopback
// TCP: dspd (durable FileStore with fsync, block cache, dsp.Server) and
// gatewayd (dsp.Pool, block cache, card fleet, gateway.Server).
type rig struct {
	dir string

	durable  *dsp.FileStore
	dspCache *dsp.Cache
	dspSrv   *dsp.Server
	dspAddr  string

	gwPool  *dsp.Pool
	gwCache *dsp.Cache
	// fleetStore is what the fleet reads through: gwCache, or its
	// decorator in a traced run.
	fleetStore dsp.Store
	fl         *fleet.Gateway
	gwSrv      *gateway.Server
	gwAddr     string
	serving    sync.WaitGroup

	// published[f] is the version folder f was published at.
	published []uint32
	// storedBytes is the corpus size in the store (ciphertext and tags).
	storedBytes int64
}

// newRig starts both daemons under dir, publishes the corpus and grants
// every subject its rules on every folder. With tr set, the gatewayd
// side reaches its stores through timing decorators.
func newRig(dir string, c *corpus, sp *spec, tr *tracer) (r *rig, err error) {
	r = &rig{dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if r.durable, err = dsp.NewFileStoreOptions(dir, dsp.FileStoreOptions{Shards: dsp.DefaultShards}); err != nil {
		return nil, err
	}
	r.dspCache = dsp.NewCache(r.durable, dspdCacheBytes)
	r.dspSrv = dsp.NewServerConfig(r.dspCache, dsp.ServerConfig{})
	if r.dspAddr, err = r.serve(r.dspSrv.Serve); err != nil {
		return nil, err
	}

	if err := r.publish(c); err != nil {
		return nil, err
	}
	// A restarted dspd serves a checkpointed corpus from its mapped tier.
	if err := r.durable.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	if r.gwPool, err = dsp.DialPool(r.dspAddr, dsp.DefaultPoolSize); err != nil {
		return nil, err
	}
	var remote dsp.Store = r.gwPool
	if tr != nil {
		if remote, err = tr.wrap(r.gwPool, tierRemote); err != nil {
			return nil, err
		}
	}
	r.gwCache = dsp.NewCache(remote, sp.gatewayCache)
	r.fleetStore = r.gwCache
	if tr != nil {
		if r.fleetStore, err = tr.wrap(r.gwCache, tierFleet); err != nil {
			return nil, err
		}
	}
	if r.fl, err = fleet.New(fleet.Config{
		Store:    r.fleetStore,
		Keys:     func(doc string) (secure.DocKey, error) { return docKey(doc), nil },
		Profile:  card.Modern,
		Prefetch: gatewayPrefetch,
	}); err != nil {
		return nil, err
	}
	r.gwSrv = gateway.NewServer(r.fl, gateway.ServerConfig{})
	if r.gwAddr, err = r.serve(r.gwSrv.Serve); err != nil {
		return nil, err
	}
	return r, nil
}

// serve starts a server on a fresh loopback port.
func (r *rig) serve(serve func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		_ = serve(l) // returns nil once the server is closed
	}()
	return l.Addr().String(), nil
}

// publish uploads every folder and rule set through a publisher's own
// pool, as an administrator's sdsctl would.
func (r *rig) publish(c *corpus) error {
	pool, err := dsp.DialPool(r.dspAddr, dsp.DefaultPoolSize)
	if err != nil {
		return err
	}
	defer pool.Close()
	pub := &proxy.Publisher{Store: pool}
	for f, tree := range c.folders {
		doc := docID(f)
		if _, err := pub.PublishDocument(tree, docenc.EncodeOptions{DocID: doc, Key: docKey(doc)}); err != nil {
			return fmt.Errorf("publish %s: %w", doc, err)
		}
		for _, s := range c.subjects {
			rs := *c.rules[s.name]
			rs.DocID = doc
			if err := pub.GrantRules(docKey(doc), &rs); err != nil {
				return fmt.Errorf("grant %s on %s: %w", s.name, doc, err)
			}
		}
		h, err := pool.Header(doc)
		if err != nil {
			return err
		}
		r.published = append(r.published, h.Version)
		for i := 0; i < h.NumBlocks(); i++ {
			r.storedBytes += int64(h.BlockStoredLen(i))
		}
	}
	return nil
}

// close stops both daemons, waits for their accept loops and removes the
// store directory.
func (r *rig) close() {
	if r.gwSrv != nil {
		_ = r.gwSrv.Close()
	}
	if r.fl != nil {
		r.fl.Close()
	}
	if r.gwPool != nil {
		_ = r.gwPool.Close()
	}
	if r.dspSrv != nil {
		_ = r.dspSrv.Close()
	}
	r.serving.Wait()
	if r.durable != nil {
		_ = r.durable.Close()
	}
	_ = os.RemoveAll(r.dir)
}

// setupRigs builds the deployment n times and keeps the last one: the
// median build time is the run's set-up time.
func setupRigs(n int, workdir string, c *corpus, sp *spec, tr *tracer) (*rig, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC() // every build starts from the same heap state
		start := time.Now()
		r, err := newRig(fmt.Sprintf("%s/store-%d", workdir, i), c, sp, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == n-1 {
			return r, times, nil
		}
		r.close()
	}
}
