package dpp

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"

	"dsi/internal/warehouse"
)

// This file is the networked control plane: a Service's session
// registry, fleet surface, and per-session Master surface exposed over
// net/rpc with gob encoding, standing in for the paper's Thrift RPC.
// The in-process calls remain the default for simulations; cmd/dppd
// and the loop benchmark serve the Service with ServeService. Tensors
// never cross this connection: they move on the framed data plane
// (dataplane.go).

// MasterService is the RPC wrapper around the per-session control
// plane: every method is scoped to one session by its args' SessionID.
type MasterService struct {
	svc *Service
}

// master resolves one session's control plane.
func (s *MasterService) master(sessionID string) (*Master, error) {
	return s.svc.Master(sessionID)
}

// RegisterArgs identifies the calling worker, its data-plane address,
// and the session it joins.
type RegisterArgs struct {
	WorkerID  string
	Endpoint  string
	SessionID string
}

// RegisterReply carries the session spec.
type RegisterReply struct{ Spec SessionSpec }

// Register handles worker registration.
func (s *MasterService) Register(args *RegisterArgs, reply *RegisterReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	spec, err := m.RegisterWorker(args.WorkerID, args.Endpoint)
	if err != nil {
		return err
	}
	reply.Spec = spec
	return nil
}

// DeregisterArgs identifies the departing worker.
type DeregisterArgs struct {
	WorkerID  string
	SessionID string
}

// Deregister removes a drained worker from the session's membership.
func (s *MasterService) Deregister(args *DeregisterArgs, reply *struct{}) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	return m.DeregisterWorker(args.WorkerID)
}

// NextSplitArgs identifies the calling worker.
type NextSplitArgs struct {
	WorkerID  string
	SessionID string
}

// NextSplitReply carries one leased split, or the drain signal.
type NextSplitReply struct {
	Split    warehouse.Split
	SplitID  int
	OK       bool
	Draining bool
}

// NextSplit leases a split.
func (s *MasterService) NextSplit(args *NextSplitArgs, reply *NextSplitReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	split, id, ok, draining, err := m.NextSplit(args.WorkerID)
	if err != nil {
		return err
	}
	reply.Split, reply.SplitID, reply.OK, reply.Draining = split, id, ok, draining
	return nil
}

// ListWorkersArgs scopes a membership resolution to one session.
type ListWorkersArgs struct {
	SessionID string
}

// ListWorkersReply carries the session's resolved worker membership.
type ListWorkersReply struct{ Workers []WorkerEndpoint }

// ListWorkers resolves current worker membership for clients.
func (s *MasterService) ListWorkers(args *ListWorkersArgs, reply *ListWorkersReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	workers, err := m.ListWorkers()
	if err != nil {
		return err
	}
	reply.Workers = workers
	return nil
}

// ReleaseArgs returns a leased split after a retryable storage failure.
type ReleaseArgs struct {
	WorkerID  string
	SplitID   int
	Reason    string
	SessionID string
}

// ReleaseReply reports whether the split was requeued (false: its
// poison budget is exhausted and the session is failing).
type ReleaseReply struct{ Requeued bool }

// Release requeues a split a worker could not read.
func (s *MasterService) Release(args *ReleaseArgs, reply *ReleaseReply) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	requeued, err := m.ReleaseSplit(args.WorkerID, args.SplitID, args.Reason)
	reply.Requeued = requeued
	return err
}

// CompleteArgs acknowledges a split.
type CompleteArgs struct {
	WorkerID  string
	SplitID   int
	SessionID string
}

// Complete acknowledges a finished split.
func (s *MasterService) Complete(args *CompleteArgs, reply *struct{}) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	return m.CompleteSplit(args.WorkerID, args.SplitID)
}

// HeartbeatArgs carries a worker utilization snapshot.
type HeartbeatArgs struct {
	WorkerID  string
	Stats     WorkerStats
	SessionID string
}

// Heartbeat records worker liveness.
func (s *MasterService) Heartbeat(args *HeartbeatArgs, reply *struct{}) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	return m.Heartbeat(args.WorkerID, args.Stats)
}

// DoneArgs scopes a completion check to one session.
type DoneArgs struct {
	SessionID string
}

// Done reports session completion.
func (s *MasterService) Done(args *DoneArgs, reply *bool) error {
	m, err := s.master(args.SessionID)
	if err != nil {
		return err
	}
	done, err := m.Done()
	if err != nil {
		return err
	}
	*reply = done
	return nil
}

// ServiceRPC is the RPC wrapper around the multi-tenant registry and
// fleet surface of a Service.
type ServiceRPC struct {
	svc *Service
}

// CreateSessionArgs registers a new tenant session.
type CreateSessionArgs struct {
	ID   string
	Spec SessionSpec
}

// Create registers a new tenant session.
func (s *ServiceRPC) Create(args *CreateSessionArgs, reply *struct{}) error {
	return s.svc.CreateSession(args.ID, args.Spec)
}

// CloseSessionArgs removes a tenant session.
type CloseSessionArgs struct {
	ID string
}

// Close removes a tenant session from the registry.
func (s *ServiceRPC) Close(args *CloseSessionArgs, reply *struct{}) error {
	return s.svc.CloseSession(args.ID)
}

// ListSessionsReply carries the session registry.
type ListSessionsReply struct {
	Sessions []SessionInfo
}

// List reports the session registry.
func (s *ServiceRPC) List(args *struct{}, reply *ListSessionsReply) error {
	sessions, err := s.svc.ListSessions()
	if err != nil {
		return err
	}
	reply.Sessions = sessions
	return nil
}

// FleetRegisterArgs announces a fleet worker.
type FleetRegisterArgs struct {
	WorkerID string
	Endpoint string
}

// RegisterFleet handles fleet worker registration.
func (s *ServiceRPC) RegisterFleet(args *FleetRegisterArgs, reply *struct{}) error {
	return s.svc.RegisterFleetWorker(args.WorkerID, args.Endpoint)
}

// FleetHeartbeatArgs carries a fleet worker's aggregate snapshot.
type FleetHeartbeatArgs struct {
	WorkerID string
	Stats    WorkerStats
}

// FleetHeartbeatReply carries the worker's assignment directive.
type FleetHeartbeatReply struct {
	Directive FleetDirective
}

// FleetHeartbeat records fleet liveness and returns assignments.
func (s *ServiceRPC) FleetHeartbeat(args *FleetHeartbeatArgs, reply *FleetHeartbeatReply) error {
	d, err := s.svc.FleetHeartbeat(args.WorkerID, args.Stats)
	if err != nil {
		return err
	}
	reply.Directive = d
	return nil
}

// FleetDeregisterArgs identifies the departing fleet worker.
type FleetDeregisterArgs struct {
	WorkerID string
}

// DeregisterFleet removes a drained fleet worker.
func (s *ServiceRPC) DeregisterFleet(args *FleetDeregisterArgs, reply *struct{}) error {
	return s.svc.DeregisterFleetWorker(args.WorkerID)
}

// acceptBackoff bounds the retry delay after a transient Accept error.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = 100 * time.Millisecond
)

// acceptLoop accepts connections until done closes (or the listener is
// torn down), handing each to handle. Transient Accept errors — a
// momentarily exhausted fd table, a connection reset during the
// handshake — back off exponentially with jitter instead of
// hot-spinning a core on the accept syscall; a successful accept resets
// the backoff. The jitter decorrelates the retry times of the many
// listeners one process hosts (service, per-worker data plane),
// so an fd-exhaustion event doesn't turn into synchronized retry waves.
func acceptLoop(ln net.Listener, done <-chan struct{}, handle func(net.Conn)) {
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-done:
				return
			case <-time.After(backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))):
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		handle(conn)
	}
}

// rpcDialTimeout bounds every control-plane dial: a black-holed
// endpoint (SYN swallowed by a dead VIP) fails the dial instead of
// wedging the caller on the kernel's connect timeout.
const rpcDialTimeout = 5 * time.Second

// dialRPC is rpc.Dial with a connect timeout.
func dialRPC(addr string) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, rpcDialTimeout)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// ServeService listens on addr and serves the multi-tenant control
// plane over net/rpc: the session-scoped Master surface plus the
// Service registry and fleet surface.
func ServeService(svc *Service, addr string) (net.Listener, func(), error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", &MasterService{svc: svc}); err != nil {
		return nil, nil, err
	}
	if err := srv.RegisterName("Service", &ServiceRPC{svc: svc}); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go acceptLoop(ln, done, func(conn net.Conn) {
		go srv.ServeConn(conn)
	})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			ln.Close()
		})
	}
	return ln, stop, nil
}

// RemoteMaster is a MasterAPI backed by an RPC connection, scoped to
// one session of the served control plane. RemoteService.SessionMaster
// derives it from the service connection.
type RemoteMaster struct {
	client  *rpc.Client
	session string
}

// RegisterWorker implements MasterAPI.
func (r *RemoteMaster) RegisterWorker(workerID, endpoint string) (SessionSpec, error) {
	var reply RegisterReply
	if err := r.client.Call("Master.Register", &RegisterArgs{WorkerID: workerID, Endpoint: endpoint, SessionID: r.session}, &reply); err != nil {
		return SessionSpec{}, err
	}
	return reply.Spec, nil
}

// DeregisterWorker implements MasterAPI.
func (r *RemoteMaster) DeregisterWorker(workerID string) error {
	return r.client.Call("Master.Deregister", &DeregisterArgs{WorkerID: workerID, SessionID: r.session}, &struct{}{})
}

// NextSplit implements MasterAPI.
func (r *RemoteMaster) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	var reply NextSplitReply
	if err := r.client.Call("Master.NextSplit", &NextSplitArgs{WorkerID: workerID, SessionID: r.session}, &reply); err != nil {
		return warehouse.Split{}, 0, false, false, err
	}
	return reply.Split, reply.SplitID, reply.OK, reply.Draining, nil
}

// ListWorkers implements MasterAPI.
func (r *RemoteMaster) ListWorkers() ([]WorkerEndpoint, error) {
	var reply ListWorkersReply
	if err := r.client.Call("Master.ListWorkers", &ListWorkersArgs{SessionID: r.session}, &reply); err != nil {
		return nil, err
	}
	return reply.Workers, nil
}

// CompleteSplit implements MasterAPI.
func (r *RemoteMaster) CompleteSplit(workerID string, splitID int) error {
	return r.client.Call("Master.Complete", &CompleteArgs{WorkerID: workerID, SplitID: splitID, SessionID: r.session}, &struct{}{})
}

// ReleaseSplit implements MasterAPI.
func (r *RemoteMaster) ReleaseSplit(workerID string, splitID int, reason string) (bool, error) {
	var reply ReleaseReply
	if err := r.client.Call("Master.Release", &ReleaseArgs{WorkerID: workerID, SplitID: splitID, Reason: reason, SessionID: r.session}, &reply); err != nil {
		return false, err
	}
	return reply.Requeued, nil
}

// Heartbeat implements MasterAPI.
func (r *RemoteMaster) Heartbeat(workerID string, stats WorkerStats) error {
	return r.client.Call("Master.Heartbeat", &HeartbeatArgs{WorkerID: workerID, Stats: stats, SessionID: r.session}, &struct{}{})
}

// Done implements MasterAPI.
func (r *RemoteMaster) Done() (bool, error) {
	var done bool
	err := r.client.Call("Master.Done", &DoneArgs{SessionID: r.session}, &done)
	return done, err
}

var _ MasterAPI = (*RemoteMaster)(nil)

// RemoteService is the client side of a served multi-tenant control
// plane: the session registry (ServiceAPI) plus the fleet surface
// (FleetControl), all over one connection.
type RemoteService struct {
	client *rpc.Client
}

// DialService connects to a control plane served by ServeService.
func DialService(addr string) (*RemoteService, error) {
	client, err := dialRPC(addr)
	if err != nil {
		return nil, fmt.Errorf("dpp: dial service %s: %w", addr, err)
	}
	return &RemoteService{client: client}, nil
}

// Close releases the connection (shared by SessionMaster derivations).
func (r *RemoteService) Close() error { return r.client.Close() }

// CreateSession implements ServiceAPI.
func (r *RemoteService) CreateSession(id string, spec SessionSpec) error {
	return r.client.Call("Service.Create", &CreateSessionArgs{ID: id, Spec: spec}, &struct{}{})
}

// CloseSession implements ServiceAPI.
func (r *RemoteService) CloseSession(id string) error {
	return r.client.Call("Service.Close", &CloseSessionArgs{ID: id}, &struct{}{})
}

// ListSessions implements ServiceAPI.
func (r *RemoteService) ListSessions() ([]SessionInfo, error) {
	var reply ListSessionsReply
	if err := r.client.Call("Service.List", &struct{}{}, &reply); err != nil {
		return nil, err
	}
	return reply.Sessions, nil
}

// RegisterFleetWorker implements FleetControl.
func (r *RemoteService) RegisterFleetWorker(workerID, endpoint string) error {
	return r.client.Call("Service.RegisterFleet", &FleetRegisterArgs{WorkerID: workerID, Endpoint: endpoint}, &struct{}{})
}

// FleetHeartbeat implements FleetControl.
func (r *RemoteService) FleetHeartbeat(workerID string, stats WorkerStats) (FleetDirective, error) {
	var reply FleetHeartbeatReply
	if err := r.client.Call("Service.FleetHeartbeat", &FleetHeartbeatArgs{WorkerID: workerID, Stats: stats}, &reply); err != nil {
		return FleetDirective{}, err
	}
	return reply.Directive, nil
}

// DeregisterFleetWorker implements FleetControl.
func (r *RemoteService) DeregisterFleetWorker(workerID string) error {
	return r.client.Call("Service.DeregisterFleet", &FleetDeregisterArgs{WorkerID: workerID}, &struct{}{})
}

// SessionMaster implements FleetControl: one session's control plane
// over the shared connection.
func (r *RemoteService) SessionMaster(sessionID string) (MasterAPI, error) {
	return &RemoteMaster{client: r.client, session: sessionID}, nil
}

var (
	_ FleetControl = (*RemoteService)(nil)
	_ ServiceAPI   = (*RemoteService)(nil)
)

// advertiseAddr converts a bound listener address into a dialable
// endpoint: a wildcard bind ("-addr :7071" yields host "::") is not
// dialable by clients, so it is advertised as loopback — matching this
// offline module's single-host deployments. Multi-host runs must bind
// an explicitly addressable -addr.
func advertiseAddr(addr net.Addr) string {
	tcp, ok := addr.(*net.TCPAddr)
	if !ok {
		return addr.String()
	}
	if tcp.IP == nil || tcp.IP.IsUnspecified() {
		return net.JoinHostPort("127.0.0.1", fmt.Sprint(tcp.Port))
	}
	return addr.String()
}
