package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/registry"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/telgen"
	"xdx/internal/wsdlx"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// The fixed deployment every workload runs against. Sizes and settings are
// constants so that two commits are measured on the same system.
const (
	auctionBytes     = 250_000 // XMark document of initial_load and delta_sync
	auctionService   = "auction"
	fleetTenants     = 32
	fleetCustomers   = 8 // telgen customers per tenant source
	churnFraction    = 0.01
	renegotiateEvery = 16  // a fleet client renegotiates on about one op in this many
	snapshotEvery    = 256 // WAL appends between compactions, xdxendpoint's default
	fsyncPolicy      = durable.FsyncBatch
)

// tenant is one service: a relational source and target endpoint pair on
// loopback HTTP, registered with the agency, owned by one client.
type tenant struct {
	name   string
	client int

	src, tgt     *relstore.Store
	srcEP, tgtEP *endpoint.Endpoint
	tgtURL       string
	tgtWSDL      *xmltree.Node // re-sent on renegotiation

	// ref holds the source's current documents loaded straight into the
	// target layout; its row count is what every exchange must leave in tgt.
	ref        *relstore.Store
	expectRows int

	doc *xmltree.Node // the auction document the source holds (auction workloads)
}

// deployment is the system under test: one agency served over SOAP with
// reliable sessions, the plan cache and the scheduler, and its tenants'
// endpoints with journaled target sessions.
type deployment struct {
	wl      *workload
	met     *obs.Registry
	agency  *registry.Agency
	hops    *hopTransport
	rec     *recorder
	clients []*soap.Client
	tenants []*tenant
	owned   [][]int // per client: the tenants it drives
	closers []func()
}

// newDeployment stands the system up from seed and runs the warm-up: every
// tenant is registered, planned and exchanged once. rec is nil in an
// untraced run, which then installs no timing wrappers. WAL directories are
// made under walParent.
func newDeployment(wl *workload, seed int64, rec *recorder, walParent string) (d *deployment, err error) {
	d = &deployment{wl: wl, met: obs.NewRegistry(), rec: rec}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	walDir, err := os.MkdirTemp(walParent, "wal-")
	if err != nil {
		return d, err
	}
	d.closers = append(d.closers, func() { os.RemoveAll(walDir) })

	d.hops = &hopTransport{base: http.DefaultTransport, peers: map[string]peer{}, rec: rec}
	d.agency = registry.New()
	svc := registry.NewService(d.agency, netsim.Loopback())
	cfg := &reliable.Config{Seed: seed, Transport: d.hops}
	cfg.Breakers = reliable.NewBreakerSet(cfg.Breaker)
	svc.Reliability = cfg
	svc.Sched = registry.NewScheduler(registry.SchedulerConfig{})
	d.closers = append(d.closers, svc.Sched.Close)
	svc.SetObs(nil, d.met)
	var h http.Handler = svc.Handler()
	if rec != nil {
		h = tracedAgency(rec, h)
	}
	agencyURL, err := d.serve(h)
	if err != nil {
		return d, err
	}
	for c := 0; c < wl.clients; c++ {
		d.clients = append(d.clients, &soap.Client{URL: agencyURL, HTTPClient: clientHTTP(rec, c)})
	}
	d.owned = partition(wl.tenants, wl.clients)

	owner := make([]int, wl.tenants)
	for c, ts := range d.owned {
		for _, i := range ts {
			owner[i] = c
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i, client := range owner {
		var t *tenant
		if wl.fleet {
			t, err = d.fleetTenant(fmt.Sprintf("tenant-%02d", i), client, rng.Int63(), walDir)
		} else {
			t, err = d.auctionTenant(auctionService, client, seed, walDir)
		}
		if err != nil {
			return d, err
		}
		d.tenants = append(d.tenants, t)
	}
	for _, t := range d.tenants {
		if err := d.warmUp(t); err != nil {
			return d, fmt.Errorf("warm-up of %s: %w", t.name, err)
		}
	}
	return d, nil
}

// partition gives each of clients a disjoint share of the tenants, tenant i
// to client i mod clients, so every endpoint serves exactly one client.
func partition(tenants, clients int) [][]int {
	owned := make([][]int, clients)
	for i := 0; i < tenants; i++ {
		owned[i%clients] = append(owned[i%clients], i)
	}
	return owned
}

// clientHTTP is the HTTP client benchmark client c calls the agency with;
// in a traced run it names the client in a header.
func clientHTTP(rec *recorder, c int) *http.Client {
	if rec == nil {
		return http.DefaultClient
	}
	return &http.Client{Transport: headerTransport{strconv.Itoa(c)}}
}

type headerTransport struct{ client string }

func (h headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := req.Clone(req.Context())
	r2.Header.Set(clientHeader, h.client)
	return http.DefaultTransport.RoundTrip(r2)
}

// serve exposes h on a loopback listener and returns its SOAP URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	d.closers = append(d.closers, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String() + "/soap", nil
}

// auctionTenant builds the auction service: an XMark document in the MF
// layout at the source and an empty LF target.
func (d *deployment) auctionTenant(name string, client int, seed int64, walDir string) (*tenant, error) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: auctionBytes, Seed: seed})
	t, err := d.addTenant(name, client, core.MostFragmented(sch), core.LeastFragmented(sch), []*xmltree.Node{doc}, walDir)
	if err != nil {
		return nil, err
	}
	t.doc = doc
	return t, nil
}

// fleetTenant builds one CustomerInfo tenant in the paper's S (source) and
// T (target) fragmentations.
func (d *deployment) fleetTenant(name string, client int, seed int64, walDir string) (*tenant, error) {
	sch := telgen.Schema()
	sFr, err := core.PaperSFragmentation(sch)
	if err != nil {
		return nil, err
	}
	tFr, err := core.PaperTFragmentation(sch)
	if err != nil {
		return nil, err
	}
	docs := telgen.Customers(telgen.Config{Customers: fleetCustomers, Seed: seed})
	return d.addTenant(name, client, sFr, tFr, docs, walDir)
}

// addTenant loads the source, starts both endpoints (the target journaled)
// and registers them with the agency over SOAP.
func (d *deployment) addTenant(name string, client int, sFr, tFr *core.Fragmentation, docs []*xmltree.Node, walDir string) (*tenant, error) {
	t := &tenant{name: name, client: client}
	var err error
	if t.src, err = relstore.NewStore(sFr); err != nil {
		return nil, err
	}
	if t.tgt, err = relstore.NewStore(tFr); err != nil {
		return nil, err
	}
	if t.ref, err = relstore.NewStore(tFr); err != nil {
		return nil, err
	}
	if err := t.load(docs); err != nil {
		return nil, err
	}

	t.srcEP = endpoint.New("S-"+name, d.backend(t.src, client), nil)
	t.tgtEP = endpoint.New("T-"+name, d.backend(t.tgt, client), nil)
	t.srcEP.SetObs(nil, d.met)
	t.tgtEP.SetObs(nil, d.met)
	j, err := durable.OpenJournal(filepath.Join(walDir, name), durable.Options{
		Fsync: fsyncPolicy, SnapshotEvery: snapshotEvery, Met: d.met,
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { j.Close() })
	t.tgtEP.SetJournal(j)
	d.closers = append(d.closers, t.srcEP.Sessions().StartSweeper(0), t.tgtEP.Sessions().StartSweeper(0))

	srcURL, err := d.serve(d.handler(t.srcEP, client, "source"))
	if err != nil {
		return nil, err
	}
	if t.tgtURL, err = d.serve(d.handler(t.tgtEP, client, "target")); err != nil {
		return nil, err
	}
	for _, p := range []struct {
		url, role string
	}{{srcURL, "source"}, {t.tgtURL, "target"}} {
		host, err := hostOf(p.url)
		if err != nil {
			return nil, err
		}
		d.hops.peers[host] = peer{role: p.role, client: client}
	}

	srcWSDL, err := wsdlNode(sFr, srcURL)
	if err != nil {
		return nil, err
	}
	if t.tgtWSDL, err = wsdlNode(tFr, t.tgtURL); err != nil {
		return nil, err
	}
	if err := d.register(client, name, "source", srcURL, srcWSDL); err != nil {
		return nil, err
	}
	if err := d.register(client, name, "target", t.tgtURL, t.tgtWSDL); err != nil {
		return nil, err
	}
	return t, nil
}

// load replaces the source's contents with docs and recomputes the row
// count an exchange must leave at the target.
func (t *tenant) load(docs []*xmltree.Node) error {
	t.src.Clear()
	t.ref.Clear()
	for _, doc := range docs {
		if err := t.src.LoadDocument(doc.Clone()); err != nil {
			return err
		}
		if err := t.ref.LoadDocument(doc.Clone()); err != nil {
			return err
		}
	}
	t.expectRows = t.ref.Rows()
	return nil
}

func (d *deployment) backend(st *relstore.Store, client int) endpoint.Backend {
	be := &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}
	if d.rec == nil {
		return be
	}
	return &tracedBackend{RelBackend: be, rec: d.rec, client: client}
}

func (d *deployment) handler(ep *endpoint.Endpoint, client int, role string) http.Handler {
	if d.rec == nil {
		return ep.Handler()
	}
	return tracedHandler(d.rec, client, role, ep.Handler())
}

func hostOf(rawURL string) (string, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", err
	}
	return u.Host, nil
}

// wsdlNode renders the WSDL an endpoint with layout fr at addr publishes.
func wsdlNode(fr *core.Fragmentation, addr string) (*xmltree.Node, error) {
	data, err := (&wsdlx.Definitions{
		Name:            "Exchange",
		TargetNamespace: "http://exbench.wsdl",
		ServiceName:     "ExchangeService",
		PortName:        "ExchangePort",
		Address:         addr,
		Schema:          fr.Schema,
		Fragmentations:  []*core.Fragmentation{fr},
	}).Marshal()
	if err != nil {
		return nil, err
	}
	return xmltree.Parse(bytes.NewReader(data))
}

// register sends the agency a Register request for one party.
func (d *deployment) register(client int, service, role, url string, wsdl *xmltree.Node) error {
	req := &xmltree.Node{Name: "Register"}
	req.SetAttr("service", service)
	req.SetAttr("role", role)
	req.SetAttr("url", url)
	req.AddKid(wsdl)
	_, err := d.clients[client].Call("Register", req)
	return err
}

// plan sends the agency a Plan request for a greedy plan.
func (d *deployment) plan(client int, service string) error {
	req := &xmltree.Node{Name: "Plan"}
	req.SetAttr("service", service)
	req.SetAttr("algorithm", "greedy")
	_, err := d.clients[client].Call("Plan", req)
	return err
}

// exchange sends the agency an Exchange request and returns its response.
func (d *deployment) exchange(client int, t *tenant) (*xmltree.Node, error) {
	req := &xmltree.Node{Name: "Exchange"}
	req.SetAttr("service", t.name)
	req.SetAttr("algorithm", "greedy")
	if d.wl.delta {
		req.SetAttr("delta", "1")
	}
	return d.clients[client].Call("Exchange", req)
}

// warmUp plans and exchanges a tenant once, so the plan cache, the
// connection pools and (in delta_sync) the delta bases are warm.
func (d *deployment) warmUp(t *tenant) error {
	if err := d.plan(t.client, t.name); err != nil {
		return err
	}
	if _, err := d.exchange(t.client, t); err != nil {
		return err
	}
	if got := t.tgt.Rows(); got != t.expectRows {
		return fmt.Errorf("target holds %d rows, want %d", got, t.expectRows)
	}
	return nil
}

// close stops every server, closes the journals and removes the WAL
// directory, in reverse order of set-up.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}
