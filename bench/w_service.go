package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"emerald/internal/chaos"
	"emerald/internal/exp"
	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

// opDeadline bounds any single service call so a wedged daemon fails
// the op instead of the run.
const opDeadline = 60 * time.Second

// sweepSvc is an in-process emeraldd: store, journal, runner and the
// HTTP surface on a loopback port, driven through sweep.Client.
type sweepSvc struct {
	journal *sweep.Journal
	runner  *sweep.Runner
	srv     *http.Server
	served  chan struct{} // closed when the serve goroutine returns
	client  *sweep.Client
}

func newSweepSvc(dir string) (*sweepSvc, error) {
	store, err := sweep.NewStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	journal, _, err := sweep.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		journal.Close()
		return nil, err
	}
	s := &sweepSvc{journal: journal, served: make(chan struct{})}
	s.runner = sweep.NewRunner(store, sweep.RunnerConfig{Workers: 2, Journal: journal})
	s.srv = &http.Server{Handler: sweep.NewServer(s.runner, store).Handler()}
	s.client = &sweep.Client{Base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) //nolint:errcheck // returns when close shuts the server
	}()
	return s, nil
}

func (s *sweepSvc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.runner.Shutdown(ctx) //nolint:errcheck // best-effort drain of an idle runner
	s.srv.Close()          //nolint:errcheck
	<-s.served
	s.journal.Close() //nolint:errcheck
}

// spanService wraps a sweep.Service with a span around each call, so
// the traced run sees submit and fetch cost without touching sweep.
type spanService struct {
	inner  sweep.Service
	tr     *tracer
	parent spanID
	prefix string
}

func (s spanService) Submit(ctx context.Context, spec sweep.Spec) (sweep.Job, error) {
	sp := s.tr.begin(s.parent, s.prefix+".submit_us", -1)
	defer s.tr.end(sp)
	return s.inner.Submit(ctx, spec)
}

func (s spanService) WaitAll(ctx context.Context, ids []string, poll time.Duration, onDone func(sweep.Job)) (map[string]sweep.Job, error) {
	return s.inner.WaitAll(ctx, ids, poll, onDone)
}

func (s spanService) Result(ctx context.Context, key string) (*sweep.Result, error) {
	sp := s.tr.begin(s.parent, s.prefix+".result_fetch_us", -1)
	defer s.tr.end(sp)
	return s.inner.Result(ctx, key)
}

// sweepCold is the sweep_cold workload: every figure of a smoke-scale
// sweep through an empty-cache daemon. The figure matrices define its
// inputs completely, so the seed has nothing to vary here.
type sweepCold struct {
	dir    string
	req    sweep.FigureRequest
	rounds int

	svc    *sweepSvc // the most recent round's daemon, cache now warm
	tables []byte
	warmMS float64
}

const sweepPoll = 5 * time.Millisecond

func setupSweepCold(e *env) (instance, error) {
	s := &sweepCold{dir: e.dir, req: sweep.FigureRequest{
		Figs: []string{"9", "11", "12", "13", "17", "19"}, Scale: "smoke",
		Models: []int{1, 2}, Workloads: []int{3}, Workers: 1,
	}}
	if e.shrink > 1 { // the smoke test sweeps one cheap cell per figure family
		s.req.Models, s.req.Configs = []int{1}, []string{exp.BAS.String()}
	}
	// The first daemon is part of set-up; later rounds start their own
	// so every round meets an empty cache.
	svc, err := newSweepSvc(filepath.Join(s.dir, "r0"))
	s.svc = svc
	return s, err
}

// warm pushes one probe job, a spec outside the figure matrix, through
// the daemon end to end: the start-up check an operator would make, and
// what gives set-up a size that file-system jitter does not swamp.
func (s *sweepCold) warm() error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	probe := sweep.Spec{Kind: sweep.KindCS2Sweep, Scale: "smoke", Workload: 1, Workers: 1}
	job, err := s.svc.client.Submit(ctx, probe)
	if err != nil {
		return err
	}
	final, err := s.svc.client.WaitAll(ctx, []string{job.ID}, sweepPoll, nil)
	if err != nil {
		return err
	}
	if j := final[job.ID]; j.State != sweep.JobDone {
		return fmt.Errorf("sweep_cold: probe job ended %s: %s", j.State, j.Error)
	}
	return nil
}

func figureTables(fs *sweep.FigureSet) []byte {
	var buf bytes.Buffer
	for _, f := range fs.Figures {
		f.Table.Write(&buf)
	}
	return buf.Bytes()
}

func (s *sweepCold) round(tr *tracer, rec *roundRec) error {
	if s.rounds > 0 { // a fresh daemon on an empty cache; starting it is not the sweep
		if err := rec.pause(func() error {
			s.svc.close()
			svc, err := newSweepSvc(filepath.Join(s.dir, "r"+strconv.Itoa(s.rounds)))
			if err == nil {
				s.svc = svc
			}
			return err
		}); err != nil {
			return err
		}
	}
	s.rounds++
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	root := tr.begin(noSpan, "sweep_cold.sweep", rec.opBase)
	defer tr.end(root)
	var svc sweep.Service = s.svc.client
	if tr != nil {
		svc = spanService{inner: svc, tr: tr, parent: root, prefix: "sweep"}
	}
	fs, err := sweep.RunFigures(ctx, svc, s.req, sweepPoll)
	if err != nil {
		return err
	}
	for i, j := range fs.Jobs {
		rec.add(j.FinishedAt.Sub(j.SubmittedAt), j.State == sweep.JobDone && !j.Cached)
		tr.add(root, "sweep.queue_wait_ms_p50", rec.opBase+i, j.SubmittedAt, j.StartedAt)
		tr.add(root, "sweep.exec_ms_p50", rec.opBase+i, j.StartedAt, j.FinishedAt)
	}
	s.tables = figureTables(fs)
	return nil
}

func (s *sweepCold) counts() counts { return nil }

// check re-runs the sweep against the now-warm cache: every job must be
// a cache hit and the tables must not differ by a byte.
func (s *sweepCold) check() []string {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	t0 := time.Now()
	fs, err := sweep.RunFigures(ctx, s.svc.client, s.req, sweepPoll)
	s.warmMS = inUnit(time.Since(t0), "ms")
	if err != nil {
		return []string{"sweep_cold: warm re-run: " + err.Error()}
	}
	var out []string
	if hits := fs.CacheHits(); hits != len(fs.Jobs) {
		out = append(out, fmt.Sprintf("sweep_cold: warm re-run hit the cache on %d of %d jobs", hits, len(fs.Jobs)))
	}
	if !bytes.Equal(figureTables(fs), s.tables) {
		out = append(out, "sweep_cold: warm re-run tables differ from the cold run's")
	}
	return out
}

func (s *sweepCold) finish(ms metricSet) {
	m := s.svc.runner.Metrics()
	ms.set("sweep.cache_hit_ratio", m.CacheHitRate, 0)
	ms.set("sweep.retries", float64(m.Retries), 0)
	ms.set("sweep.jobs_failed", float64(m.JobsFailed), 0)
	ms.set("sweep.warm_pass_ms", s.warmMS, 1)
}

func (s *sweepCold) close() {
	s.svc.close()
	http.DefaultClient.CloseIdleConnections()
}

// startFleet starts n in-process members (store, write-ahead journal,
// runner with a free executor, fleet.Node and the HTTP surface) with
// chaos off, and returns once every member's first probe round has made
// it ready. The members run fleet.Config's default probe, steal and
// anti-entropy periods, not the chaos soak's much shorter ones, so the
// background protocols stay in the background.
func startFleet(dir string, n int) (*chaos.Cluster, error) {
	cluster, err := chaos.NewCluster(dir, n, func(int) chaos.MemberOpts {
		return chaos.MemberOpts{Replicas: fleetReplicas, ProbeInterval: 2 * time.Second,
			StealInterval: 500 * time.Millisecond, AntiEntropyInterval: 30 * time.Second}
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range cluster.Members {
		for ready, why := m.Node().Ready(); !ready; ready, why = m.Node().Ready() {
			if time.Now().After(deadline) {
				cluster.Close()
				return nil, fmt.Errorf("fleet_plane: member %s not ready: %s", m.URL, why)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return cluster, nil
}

// fleetPlane is the fleet_plane workload: three in-process members with
// a free executor, so an op is the service path alone.
type fleetPlane struct {
	cluster *chaos.Cluster
	fc      *fleet.Client
	ring    *fleet.Ring
	nodes   map[string]*sweep.Client
	gen     *specGen
	roundN  int // ops per round
	warmN   int
}

const (
	fleetMembers  = 3
	fleetReplicas = 2
	// One goroutine drives the fleet client. With two, clients and
	// members saturate both vCPUs of the 2-core host and every
	// background blip lands on the measurement (spread over 12
	// interleaved runs: 26-30% with two, 12-14% with one).
	fleetRoundOps = 200
	fleetWarmOps  = 150
	fleetPoll     = time.Millisecond
)

// specGen is the client's seeded spec stream: two new specs (unique
// Mbps, so each is accepted, queued, executed, stored and replicated)
// to every re-submit of a spec the client already completed (a
// cache-hit read). Not one to one: a read takes 0.3 ms and a new spec
// 2 ms, and the median of an even mix sits in the gap between the two,
// where a coin's luck moves it by a fifth.
type specGen struct {
	r     *rng
	fresh int
	done  []sweep.Spec
}

func (g *specGen) next() (spec sweep.Spec, isNew bool) {
	if len(g.done) > 0 && g.r.intn(3) == 0 {
		return g.done[g.r.intn(len(g.done))], false
	}
	configs := exp.AllMemConfigs()
	spec = sweep.Spec{
		Kind: sweep.KindCS1, Scale: "smoke",
		Model:  1 + g.r.intn(4),
		Config: configs[g.r.intn(len(configs))].String(),
		Mbps:   1000 + g.fresh,
	}
	g.fresh++
	return spec, true
}

func setupFleetPlane(e *env) (instance, error) {
	cluster, err := startFleet(e.dir, fleetMembers)
	if err != nil {
		return nil, err
	}
	f := &fleetPlane{cluster: cluster, nodes: map[string]*sweep.Client{},
		roundN: max(e.n(fleetRoundOps), 2), warmN: e.n(fleetWarmOps),
		gen: &specGen{r: newRNG(e.seed, "fleet")}}
	var urls []string
	for _, m := range cluster.Members {
		urls = append(urls, m.URL)
		f.nodes[m.URL] = &sweep.Client{Base: m.URL}
	}
	if f.fc, err = fleet.NewClient(urls, nil); err != nil {
		f.close()
		return nil, err
	}
	if f.ring, err = fleet.NewRing(urls, 0); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// op submits one spec and returns once its result is in hand.
func (f *fleetPlane) op(tr *tracer, op int) (sweep.Spec, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	g := f.gen
	spec, isNew := g.next()
	root := tr.begin(noSpan, "fleet_plane.op", op)
	defer tr.end(root)
	var svc sweep.Service = f.fc
	if tr != nil {
		svc = spanService{inner: svc, tr: tr, parent: root, prefix: "fleet"}
	}
	job, err := svc.Submit(ctx, spec)
	if err != nil {
		return spec, isNew, err
	}
	if !job.Terminal() {
		final, err := svc.WaitAll(ctx, []string{job.ID}, fleetPoll, nil)
		if err != nil {
			return spec, isNew, err
		}
		job = final[job.ID]
	}
	if job.State != sweep.JobDone {
		return spec, isNew, fmt.Errorf("fleet_plane: job %s (%s) ended %s: %s", job.ID, spec, job.State, job.Error)
	}
	res, err := svc.Result(ctx, job.Key)
	if err != nil {
		return spec, isNew, err
	}
	if res.Spec.Key() != spec.Key() {
		return spec, isNew, fmt.Errorf("fleet_plane: result for %s carries spec %s", spec, res.Spec)
	}
	if isNew {
		g.done = append(g.done, spec)
	}
	return spec, isNew, nil
}

func (f *fleetPlane) warm() error {
	for i := 0; i < f.warmN; i++ {
		if _, _, err := f.op(nil, -1); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetPlane) round(tr *tracer, rec *roundRec) error {
	var lastNew *sweep.Spec
	for i := 0; i < f.roundN; i++ {
		rec.op(func(op int) error { //nolint:errcheck // a failed op is on record; the round goes on
			spec, isNew, err := f.op(tr, op)
			if err == nil && isNew {
				lastNew = &spec
			}
			return err
		})
	}
	if tr != nil && lastNew != nil {
		f.replicaVisible(tr, *lastNew)
	}
	return nil
}

// replicaBytes polls the key's second owner until it serves the blob
// and returns the bytes with the time that took.
func (f *fleetPlane) replicaBytes(key string) ([]byte, time.Duration, error) {
	owners := f.ring.Owners(key, fleetReplicas)
	if len(owners) < fleetReplicas {
		return nil, 0, fmt.Errorf("fleet_plane: key %s has %d owner(s)", key[:12], len(owners))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	for {
		b, err := f.nodes[owners[1]].ResultBytes(ctx, key) // a 404 is not retried inside
		if err == nil {
			return b, time.Since(t0), nil
		}
		select {
		case <-ctx.Done():
			return nil, 0, fmt.Errorf("fleet_plane: replica of %s never appeared on %s: %w", key[:12], owners[1], err)
		case <-time.After(fleetPoll):
		}
	}
}

// replicaVisible records how long after the client had its result the
// second owner could serve the same blob.
func (f *fleetPlane) replicaVisible(tr *tracer, spec sweep.Spec) {
	t0 := time.Now()
	if _, d, err := f.replicaBytes(spec.Key()); err == nil {
		tr.add(noSpan, "fleet.replica_visible_ms", -1, t0, t0.Add(d))
	}
}

func (f *fleetPlane) counts() counts { return nil }

// check fetches the client's newest result from both of its owners:
// the replica must hold the primary's bytes exactly.
func (f *fleetPlane) check() []string {
	if len(f.gen.done) == 0 {
		return []string{"fleet_plane: the client completed no new spec"}
	}
	key := f.gen.done[len(f.gen.done)-1].Key()
	primary := f.ring.Owners(key, fleetReplicas)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	want, err := f.nodes[primary].ResultBytes(ctx, key)
	if err != nil {
		return []string{fmt.Sprintf("fleet_plane: primary %s lost %s: %v", primary, key[:12], err)}
	}
	got, _, err := f.replicaBytes(key)
	if err != nil {
		return []string{err.Error()}
	}
	if !bytes.Equal(got, want) {
		return []string{fmt.Sprintf("fleet_plane: replica bytes of %s differ from the primary's", key[:12])}
	}
	return nil
}

// promTotal sums a counter family over every member's WriteProm text.
func (f *fleetPlane) promTotal(family string) float64 {
	var total float64
	for _, m := range f.cluster.Members {
		var buf bytes.Buffer
		if err := m.Node().WriteProm(&buf); err != nil {
			continue
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, family) {
				continue
			}
			if rest := line[len(family):]; rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			fields := strings.Fields(line)
			v, _ := strconv.ParseFloat(fields[len(fields)-1], 64)
			total += v
		}
	}
	return total
}

func (f *fleetPlane) finish(ms metricSet) {
	ms.set("fleet.replicas_pushed", f.promTotal("emerald_fleet_replicas_pushed_total"), 0)
	ms.set("fleet.jobs_stolen", f.promTotal("emerald_fleet_jobs_stolen_in_total"), 0)
	ms.set("fleet.repairs", f.promTotal("emerald_fleet_repairs_total"), 0)
	ms.set("fleet.hedges", float64(f.fc.HedgeStats().Fired), 0)
}

func (f *fleetPlane) close() {
	f.cluster.Close()
	http.DefaultClient.CloseIdleConnections()
}
