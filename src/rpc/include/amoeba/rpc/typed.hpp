// Typed RPC over operation descriptors (rpc/op.hpp): server-side dispatch
// glue, the client-side call/call_async/TypedBatch stubs, and the uniform
// std_* operation suite every server registers.
//
// Server side.  Service::on(op, store, handler) centralizes the §2.3
// validate hot path: the dispatcher looks the header capability up in the
// service's object store and checks the op's DECLARED rights before any
// handler code runs (rights precede parsing -- a request is not even
// decoded for a caller whose capability does not cover the operation).
// Handlers receive the decoded request body and, for single-object ops,
// the exclusive store accessor; they return Result values, which the glue
// maps to reply statuses.  Decode failures answer invalid_argument with an
// op-named diagnostic string in the reply data.
//
// Client side.  call<Op> performs one blocking transaction and hands back
// the decoded typed reply, or with call<&Reply::field> just that member.
// ClientStub is the base of every service's client class: each method
// binds one op of the service's table to that call.  call_async<Op>
// returns a TypedFuture so one thread can pipeline; TypedBatch::add<Op>
// packs typed sub-requests into the batch envelope and decodes per-entry
// typed results.  The wire format is unchanged, so typed clients
// interoperate with untyped peers (and vice versa) frame for frame.
//
// std_* suite (§2.3; Amoeba's standard operations).  Declared once here
// and registered on every service via register_std_ops():
//
//   std_restrict  0xF0  fabricate a sub-capability with fewer rights
//   std_revoke    0xF1  rotate the object's random number (admin right)
//   std_info      0xF2  human-readable object description
//   std_touch     0xF3  liveness ping: validates the capability, nothing
//                       else (the hook garbage collection would use)
//   std_destroy   0xF4  destroy the object (destroy right); servers with
//                       destruction side effects install a hook
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <stop_token>
#include <string>
#include <type_traits>
#include <utility>

#include "amoeba/rpc/batch.hpp"
#include "amoeba/rpc/op.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"

namespace amoeba::rpc {

/// What a typed call resolves to: Result<Reply>, or Result<void> for
/// payload-less replies.
template <typename OpT>
using Outcome =
    std::conditional_t<std::is_same_v<typename OpT::Reply, Empty>,
                       Result<void>, Result<typename OpT::Reply>>;

/// The decoded request context handed to typed handlers.
template <typename OpT>
struct Call {
  const net::Delivery& delivery;
  const OpT& op;
  core::Capability capability;  // unpacked header capability (null for
                                // factory ops); already validated against
                                // op.required when the handler runs
  typename OpT::Request body;   // decoded request

  [[nodiscard]] MachineId src() const { return delivery.src; }
};

namespace detail {

/// invalid_argument reply whose data names the op that failed to decode
/// (defined in typed.cpp; uses to_string(ErrorCode) for the diagnostic).
[[nodiscard]] net::Message decode_error_reply(const net::Delivery& request,
                                              const char* op_name);

template <typename OpT>
[[nodiscard]] std::optional<typename OpT::Request> decode_request(
    const net::Delivery& request) {
  return OpT::Request::Wire::decode(view_of(request.message));
}

template <typename OpT>
[[nodiscard]] net::Message encode_reply(const net::Delivery& request,
                                        const Outcome<OpT>& outcome) {
  if (!outcome.ok()) {
    return net::make_reply(request.message, outcome.error());
  }
  net::Message reply = net::make_reply(request.message, ErrorCode::ok);
  if constexpr (!std::is_same_v<typename OpT::Reply, Empty>) {
    WireImage image;
    OpT::Reply::Wire::encode(outcome.value(), image);
    reply.header.capability = image.capability;
    reply.header.params = image.params;
    reply.data = std::move(image.data);
  }
  return reply;
}

template <typename OpT>
[[nodiscard]] net::Message build_request(Port dest, const OpT& op,
                                         const core::Capability* cap,
                                         const typename OpT::Request& body) {
  WireImage image;
  OpT::Request::Wire::encode(body, image);
  net::Message request;
  request.header.dest = dest;
  request.header.opcode = op.opcode;
  request.header.capability = image.capability;
  request.header.params = image.params;
  request.data = std::move(image.data);
  if (cap != nullptr) {
    request.header.capability = core::pack(*cap);
  }
  return request;
}

template <typename OpT>
[[nodiscard]] Outcome<OpT> decode_reply(Result<net::Delivery>&& delivery) {
  if (!delivery.ok()) {
    return delivery.error();
  }
  const net::Message& msg = delivery.value().message;
  if (msg.header.status != ErrorCode::ok) {
    return msg.header.status;
  }
  if constexpr (std::is_same_v<typename OpT::Reply, Empty>) {
    return Result<void>{};
  } else {
    auto body = OpT::Reply::Wire::decode(view_of(msg));
    if (!body.has_value()) {
      return ErrorCode::internal;  // server broke the declared reply shape
    }
    return std::move(*body);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------
// Server-side registration (declared in rpc/server.hpp).

template <typename OpT, typename F>
  requires requires { typename OpT::Request; typename OpT::Reply; }
void Service::on(const OpT& op, F handler) {
  if (op.object) {
    throw UsageError(std::string("Service::on: ") + op.name +
                     " addresses an object; register it with its store");
  }
  on(op.opcode,
     [op, handler = std::move(handler)](
         const net::Delivery& request) -> net::Message {
       auto body = detail::decode_request<OpT>(request);
       if (!body.has_value()) {
         return detail::decode_error_reply(request, op.name);
       }
       Call<OpT> call{request, op, {}, std::move(*body)};
       return detail::encode_reply<OpT>(request, handler(call));
     });
  note_op({op.opcode, op.name, op.required, op.data_rights, op.object});
}

template <typename OpT, typename Store, typename F>
  requires requires { typename OpT::Request; typename OpT::Reply; }
void Service::on(const OpT& op, Store& store, F handler) {
  if (!op.object) {
    throw UsageError(std::string("Service::on: factory op ") + op.name +
                     " takes no capability; register it without a store");
  }
  on(op.opcode,
     [&store, op, handler = std::move(handler)](
         const net::Delivery& request) -> net::Message {
       Call<OpT> call{request, op,
                      core::unpack(request.message.header.capability), {}};
       constexpr bool kTakesAccessor =
           std::is_invocable_v<const F&, Call<OpT>&, typename Store::Opened&>;
       static_assert(kTakesAccessor ||
                         std::is_invocable_v<const F&, Call<OpT>&>,
                     "typed handlers take (Call&, Store::Opened&) or (Call&)");
       if constexpr (kTakesAccessor) {
         // The §2.3 validate hot path, centralized: one open() with the
         // op's declared rights, before the request body is even parsed.
         // open()'s read-only prefix probes the slot seqlock + validated-
         // capability cache first, so a repeat capability reaches the
         // shard mutex already proven and skips the crypto re-validation.
         auto opened = store.open(call.capability, op.required);
         if (!opened.ok()) {
           return net::make_reply(request.message, opened.error());
         }
         auto body = detail::decode_request<OpT>(request);
         if (!body.has_value()) {
           return detail::decode_error_reply(request, op.name);
         }
         call.body = std::move(*body);
         return detail::encode_reply<OpT>(request,
                                          handler(call, opened.value()));
       } else {
         // (Call&)-form op: rights are still checked up front, and on a
         // repeat capability check() completes with atomic loads only --
         // zero mutex acquisitions -- via the seqlock'd validated-
         // capability cache.  A handler that touches payload state (open2,
         // journaling) then takes the shard locks it needs itself; a
         // handler that touches nothing (kStdTouch) stays lock-free end
         // to end.
         auto checked = store.check(call.capability, op.required);
         if (!checked.ok()) {
           return net::make_reply(request.message, checked.error());
         }
         auto body = detail::decode_request<OpT>(request);
         if (!body.has_value()) {
           return detail::decode_error_reply(request, op.name);
         }
         call.body = std::move(*body);
         return detail::encode_reply<OpT>(request, handler(call));
       }
     });
  note_op({op.opcode, op.name, op.required, op.data_rights, op.object});
}

// ---------------------------------------------------------------------
// Client side.

/// Builds the wire message of one typed request without sending it, for
/// callers that drive Transport by hand (protocol layers needing the raw
/// delivery, benches pipelining raw futures).
template <typename OpT>
[[nodiscard]] net::Message make_request(Port dest, const OpT& op,
                                        const typename OpT::Request& body = {}) {
  return detail::build_request(dest, op, nullptr, body);
}
template <typename OpT>
[[nodiscard]] net::Message make_request(Port dest, const OpT& op,
                                        const core::Capability& cap,
                                        const typename OpT::Request& body = {}) {
  return detail::build_request(dest, op, &cap, body);
}

/// One blocking typed transaction against the object `cap` names.
template <typename OpT>
[[nodiscard]] Outcome<OpT> call(Transport& transport, Port dest,
                                const OpT& op, const core::Capability& cap,
                                const typename OpT::Request& body = {}) {
  return detail::decode_reply<OpT>(
      transport.trans(detail::build_request(dest, op, &cap, body)));
}

/// Capability-less form (factory ops).
template <typename OpT>
[[nodiscard]] Outcome<OpT> call(Transport& transport, Port dest,
                                const OpT& op,
                                const typename OpT::Request& body = {}) {
  return detail::decode_reply<OpT>(
      transport.trans(detail::build_request(dest, op, nullptr, body)));
}

namespace detail {
/// The type of the reply member a projecting call<&Reply::field> returns.
template <auto Field>
using FieldOf = typename MemberPtr<decltype(Field)>::Type;

template <auto Field, typename Reply>
[[nodiscard]] Result<FieldOf<Field>> project(Result<Reply>&& reply) {
  if (!reply.ok()) {
    return reply.error();
  }
  return std::move(reply.value().*Field);
}
}  // namespace detail

/// Projecting forms: call<&Reply::field>(...) runs the op and hands back
/// only that member of the decoded reply.
template <auto Field, typename OpT>
[[nodiscard]] Result<detail::FieldOf<Field>> call(
    Transport& transport, Port dest, const OpT& op,
    const core::Capability& cap, const typename OpT::Request& body = {}) {
  return detail::project<Field>(call(transport, dest, op, cap, body));
}
template <auto Field, typename OpT>
[[nodiscard]] Result<detail::FieldOf<Field>> call(
    Transport& transport, Port dest, const OpT& op,
    const typename OpT::Request& body = {}) {
  return detail::project<Field>(call(transport, dest, op, body));
}

/// Base of every service's client stub: the transport and the server's
/// put-port.  A stub method binds one op of the server's *_ops table:
///
///   Result<std::int64_t> balance(const core::Capability& account,
///                                std::uint32_t currency) {
///     return call<&bank_ops::BalanceReply::balance>(bank_ops::kBalance,
///                                                   account, {currency});
///   }
class ClientStub {
 public:
  ClientStub(Transport& transport, Port server_port)
      : transport_(&transport), server_port_(server_port) {}

  [[nodiscard]] Port server_port() const { return server_port_; }

 protected:
  [[nodiscard]] Transport& transport() const { return *transport_; }

  /// rpc::call against this stub's server, optionally projected.
  template <auto... Field, typename OpT>
  [[nodiscard]] auto call(const OpT& op, const core::Capability& cap,
                          const typename OpT::Request& body = {}) const {
    return rpc::call<Field...>(*transport_, server_port_, op, cap, body);
  }
  template <auto... Field, typename OpT>
  [[nodiscard]] auto call(const OpT& op,
                          const typename OpT::Request& body = {}) const {
    return rpc::call<Field...>(*transport_, server_port_, op, body);
  }

 private:
  Transport* transport_;
  Port server_port_;
};

/// Completion handle of one typed in-flight transaction; get() decodes.
template <typename OpT>
class [[nodiscard]] TypedFuture {
 public:
  TypedFuture() = default;
  explicit TypedFuture(Future raw) : raw_(std::move(raw)) {}

  [[nodiscard]] bool valid() const { return raw_.valid(); }
  [[nodiscard]] bool ready() const { return raw_.ready(); }
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const {
    return raw_.wait_for(timeout);
  }
  /// One-shot, like Future::get.
  [[nodiscard]] Outcome<OpT> get(std::stop_token stop = {}) {
    return detail::decode_reply<OpT>(raw_.get(std::move(stop)));
  }

 private:
  Future raw_;
};

/// Pipelining: issue without waiting; any number may be in flight.
template <typename OpT>
[[nodiscard]] TypedFuture<OpT> call_async(
    Transport& transport, Port dest, const OpT& op,
    const core::Capability& cap, const typename OpT::Request& body = {}) {
  return TypedFuture<OpT>(
      transport.trans_async(detail::build_request(dest, op, &cap, body)));
}

template <typename OpT>
[[nodiscard]] TypedFuture<OpT> call_async(
    Transport& transport, Port dest, const OpT& op,
    const typename OpT::Request& body = {}) {
  return TypedFuture<OpT>(
      transport.trans_async(detail::build_request(dest, op, nullptr, body)));
}

// ---------------------------------------------------------------------
// TypedBatch: typed sub-requests riding the PR-2 batch envelope.

/// Queue typed requests for one service, send them as a single batch
/// frame, decode per-entry typed replies:
///
///   rpc::TypedBatch batch(transport, bank_port);
///   auto first = batch.add(bank_ops::kTransfer, from, {cur, amount, to});
///   ...
///   auto replies = batch.run();           // one round trip for all
///   Result<void> outcome = replies.value().get(first);
class TypedBatch {
 public:
  /// The add() position of one entry, remembering its op type so get()
  /// decodes the right reply shape.
  template <typename OpT>
  struct Entry {
    std::size_t index = 0;
  };

  TypedBatch(Transport& transport, Port dest) : batch_(transport, dest) {}

  template <typename OpT>
  Entry<OpT> add(const OpT& op, const core::Capability& cap,
                 const typename OpT::Request& body = {}) {
    return add_impl<OpT>(op, &cap, body);
  }
  template <typename OpT>
  Entry<OpT> add(const OpT& op, const typename OpT::Request& body = {}) {
    return add_impl<OpT>(op, nullptr, body);
  }

  [[nodiscard]] std::size_t size() const { return batch_.size(); }
  [[nodiscard]] bool empty() const { return batch_.empty(); }
  void clear() { batch_.clear(); }

  /// Per-entry typed results of one completed batch round trip.
  class Replies {
   public:
    template <typename OpT>
    [[nodiscard]] Outcome<OpT> get(Entry<OpT> entry) const {
      if (entry.index >= entries_.size()) {
        return ErrorCode::internal;  // reply count below the queued count
      }
      const BatchReply& reply = entries_[entry.index];
      if (reply.status != ErrorCode::ok) {
        return reply.status;
      }
      if constexpr (std::is_same_v<typename OpT::Reply, Empty>) {
        return Result<void>{};
      } else {
        auto body = OpT::Reply::Wire::decode(
            WireView{reply.capability, reply.params, reply.data});
        if (!body.has_value()) {
          return ErrorCode::internal;
        }
        return std::move(*body);
      }
    }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }

   private:
    friend class TypedBatch;
    std::vector<BatchReply> entries_;
  };

  /// One round trip for every queued entry; consumes the queue like
  /// rpc::Batch::run, and a success carries one reply per queued entry.
  [[nodiscard]] Result<Replies> run();
  [[nodiscard]] Result<Replies> run(std::chrono::milliseconds timeout);

  /// Pipelining: send without waiting, decode later with parse_reply().
  [[nodiscard]] Future run_async() { return batch_.run_async(); }
  [[nodiscard]] Future run_async(std::chrono::milliseconds timeout) {
    return batch_.run_async(timeout);
  }
  [[nodiscard]] static Result<Replies> parse_reply(
      Result<net::Delivery> delivery);

 private:
  template <typename OpT>
  Entry<OpT> add_impl(const OpT& op, const core::Capability* cap,
                      const typename OpT::Request& body) {
    WireImage image;
    OpT::Request::Wire::encode(body, image);
    if (cap != nullptr) {
      image.capability = core::pack(*cap);
    }
    return Entry<OpT>{batch_.add(op.opcode, &image.capability,
                                 std::move(image.data), image.params)};
  }

  Batch batch_;
};

// ---------------------------------------------------------------------
// The uniform standard-operations suite.

struct StdRestrictRequest {
  Rights mask;
  using Wire = Layout<StdRestrictRequest, Param<0, &StdRestrictRequest::mask>>;
};

struct StdInfoRequest {
  /// Nonzero: append the service's per-operation latency/error counters
  /// (Service::op_metrics()) to the description.  Old clients leave the
  /// param zeroed, so the wire format is backward compatible.
  std::uint64_t detail = 0;
  using Wire = Layout<StdInfoRequest, Param<0, &StdInfoRequest::detail>>;
};

struct StdInfoReply {
  std::string description;
  using Wire = Layout<StdInfoReply, Data<&StdInfoReply::description>>;
};

/// Fabricate a sub-capability with fewer rights (the paper's owner
/// operation; any valid capability may be narrowed -- you can only lose
/// rights this way).  Same opcode and wire shape as the old kOpRestrict.
inline constexpr Op<StdRestrictRequest, CapabilityReply> kStdRestrict{
    0xF0, "std.restrict", Rights::none()};

/// Rotate the object's random number, invalidating every outstanding
/// capability ("obviously this operation must be protected with a bit in
/// the RIGHTS field").  Same opcode and wire shape as the old kOpRevoke.
inline constexpr Op<Empty, CapabilityReply> kStdRevoke{
    0xF1, "std.revoke", core::rights::kAdmin};

/// Human-readable description of the object behind a capability; with the
/// detail flag, also the service's per-op latency/error counters.
inline constexpr Op<StdInfoRequest, StdInfoReply> kStdInfo{0xF2, "std.info",
                                                           Rights::none()};

/// Validates the capability and does nothing else -- the liveness ping a
/// garbage collector would use to keep an object from aging out.
inline constexpr Op<Empty, Empty> kStdTouch{0xF3, "std.touch",
                                            Rights::none()};

/// Destroys the object through the uniform opcode.
inline constexpr Op<Empty, Empty> kStdDestroy{0xF4, "std.destroy",
                                              core::rights::kDestroy};

/// Per-server customization of the generic std_* handlers.
template <typename Store>
struct StdOpsHooks {
  /// Replaces the default destroy (plain store.destroy) for servers whose
  /// destruction has side effects -- freeing disk blocks, refunding
  /// storage charges, releasing page trees, returning budget.  Receives
  /// the accessor already opened with the destroy right and consumes it.
  std::function<Result<void>(typename Store::Opened&&)> destroy{};
  /// Appended to std_info's description (object-kind specifics).
  std::function<std::string(const typename Store::Opened&)> describe{};
};

/// Registers the whole std_* suite against `store` on `service`'s
/// dispatch table (generalizing the old register_owner_ops).  The store
/// and service must outlive each other as usual (both members of the same
/// server object).
template <typename Store>
void register_std_ops(Service& service, Store& store,
                      StdOpsHooks<Store> hooks = {}) {
  service.on(kStdRestrict, store,
             [&store](const auto& call) -> Result<CapabilityReply> {
               auto narrowed =
                   store.restrict(call.capability, call.body.mask);
               if (!narrowed.ok()) {
                 return narrowed.error();
               }
               return CapabilityReply{narrowed.value()};
             });
  service.on(kStdRevoke, store,
             [&store](const auto& call) -> Result<CapabilityReply> {
               auto fresh = store.revoke(call.capability);
               if (!fresh.ok()) {
                 return fresh.error();
               }
               return CapabilityReply{fresh.value()};
             });
  service.on(kStdInfo, store,
             [&service, describe = std::move(hooks.describe)](
                 const auto& call, auto& opened) -> Result<StdInfoReply> {
               std::string text = service.name() + "/" +
                                  to_string(opened.object) + " " +
                                  to_string(opened.rights);
               if (describe) {
                 text.append(" ").append(describe(opened));
               }
               if (call.body.detail != 0) {
                 // Deployment line: replication role, peers and shipping
                 // lag (docs/PROTOCOL.md §9.5), or "role=standalone".
                 text.append("\n").append(service.info_detail());
                 // Per-op latency/error counters keyed by OpInfo::name
                 // (the ROADMAP metrics follow-up from PR 3).
                 for (const auto& op : service.op_metrics()) {
                   text += "\n" + op.name + " calls=" +
                           std::to_string(op.calls) + " errors=" +
                           std::to_string(op.errors) + " total_us=" +
                           std::to_string(op.total_ns / 1000) + " max_us=" +
                           std::to_string(op.max_ns / 1000);
                 }
               }
               return StdInfoReply{std::move(text)};
             });
  // (Call&) form, not the accessor form: touch needs no payload access,
  // so a repeat touch rides check()'s lock-free validate -- atomic loads
  // only, no shard mutex -- which is exactly what the liveness-probe
  // traffic pattern (many touches per mutation) wants.
  service.on(kStdTouch, store,
             [](const auto&) -> Result<void> { return {}; });
  service.on(kStdDestroy, store,
             [&store, destroy = std::move(hooks.destroy)](
                 const auto&, auto& opened) -> Result<void> {
               if (destroy) {
                 return destroy(std::move(opened));
               }
               return store.destroy(std::move(opened));
             });
}

// Client-side std_* helpers, addressed through the capability's own
// SERVER field like every owner operation.

[[nodiscard]] inline Result<core::Capability> std_restrict(
    Transport& transport, const core::Capability& cap, Rights mask) {
  return call<&CapabilityReply::capability>(transport, cap.server_port,
                                            kStdRestrict, cap, {mask});
}

[[nodiscard]] inline Result<core::Capability> std_revoke(
    Transport& transport, const core::Capability& cap) {
  return call<&CapabilityReply::capability>(transport, cap.server_port,
                                            kStdRevoke, cap);
}

[[nodiscard]] inline Result<std::string> std_info(Transport& transport,
                                                  const core::Capability& cap,
                                                  bool detail = false) {
  return call<&StdInfoReply::description>(
      transport, cap.server_port, kStdInfo, cap,
      {detail ? std::uint64_t{1} : std::uint64_t{0}});
}

[[nodiscard]] inline Result<void> std_touch(Transport& transport,
                                            const core::Capability& cap) {
  return call(transport, cap.server_port, kStdTouch, cap);
}

[[nodiscard]] inline Result<void> std_destroy(Transport& transport,
                                              const core::Capability& cap) {
  return call(transport, cap.server_port, kStdDestroy, cap);
}

}  // namespace amoeba::rpc
