#include "audit/member_node.hpp"

#include "audit/metrics.hpp"

namespace dla::audit {

// ------------------------------------------------------------- CaNode -----

CaNode::CaNode(std::string name, crypto::RsaKeyPair key)
    : name_(std::move(name)), key_(std::move(key)) {}

void CaNode::on_message(net::Transport& sim, const net::Message& msg) {
  if (msg.type != kTokenRequest) return;
  net::Reader r(msg.payload);
  std::uint64_t reqid;
  bn::BigUInt blinded;
  try {
    reqid = r.u64();
    blinded = r.big();
    r.expect_end();
  } catch (const net::CodecError&) {
    // A hostile join request must not crash the certificate authority.
    ++detail::wire_reject_counters_mut().codec_rejects;
    return;
  }
  // At-least-once dedup: a chaos-duplicated request must not inflate
  // tokens_issued_ — the CA's issuance trail is audit evidence, and a
  // double count would look like a second credential. Replay the journal.
  const std::pair<net::NodeId, std::uint64_t> journal_key{msg.src, reqid};
  bn::BigUInt blind_sig;
  if (const bn::BigUInt* issued = token_journal_.find(journal_key)) {
    ++replay_drops_;
    blind_sig = *issued;
  } else {
    // Blind signing: the CA sees only m * r^e mod n, never the pseudonym.
    blind_sig = key_.apply_private(blinded % key_.public_key().n);
    ++tokens_issued_;
    token_journal_.insert(journal_key, blind_sig);
  }
  net::Writer w;
  w.u64(reqid);
  w.big(blind_sig);
  sim.send(id(), msg.src, kTokenReply, std::move(w).take());
}

// ----------------------------------------------------------- MemberNode ---

MemberNode::MemberNode(std::string name, std::uint64_t seed,
                       std::size_t pseudonym_bits)
    : name_(std::move(name)),
      rng_(seed),
      key_(crypto::RsaKeyPair::generate(rng_, pseudonym_bits)) {}

void MemberNode::acquire_token(net::Transport& sim, net::NodeId ca,
                               const crypto::RsaPublicKey& ca_pub,
                               TokenCallback done) {
  ca_pub_ = ca_pub;
  token_done_ = std::move(done);
  auto blinding =
      crypto::blind(ca_pub, token_message(pseudonym()), rng_);
  blind_factor_ = blinding.r;
  net::Writer w;
  w.u64(1);
  w.big(blinding.blinded);
  sim.send(id(), ca, kTokenRequest, std::move(w).take());
}

void MemberNode::handle_token_reply(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  r.u64();  // reqid
  bn::BigUInt blind_sig = r.big();
  r.expect_end();
  bn::BigUInt sig = crypto::unblind(*ca_pub_, blind_sig, blind_factor_);
  bool ok = ca_pub_->verify(token_message(pseudonym()), sig);
  if (ok) token_ = std::move(sig);
  if (token_done_) {
    TokenCallback done = std::move(token_done_);
    token_done_ = nullptr;
    done(ok);
  }
}

void MemberNode::found_chain(const std::string& terms) {
  if (!token_) throw std::logic_error("found_chain: no membership token");
  EvidencePiece genesis = make_evidence_piece(0, "", key_, pseudonym(),
                                              *token_, terms);
  chain_.append(std::move(genesis));
  chain_at_authority_ = chain_;
  has_authority_ = true;
}

void MemberNode::found_chain(net::Transport& sim, const std::string& terms) {
  found_chain(terms);
  if (!ledger_peer_) return;
  // The founder's self-issued piece and certificate open the ledger's
  // evidence history, interlocked against the shared genesis record.
  publish_evidence(*ledger_peer_, sim, id(), chain_.pieces().back());
  CertPayload cert;
  cert.subject = pseudonym();
  cert.subject_n = key_.public_key().n;
  cert.subject_e = key_.public_key().e;
  cert.ca_token = *token_;
  publish_certificate(*ledger_peer_, sim, id(), RecordKind::CertIssue, cert);
}

void MemberNode::enable_ledger(const std::string& domain,
                               std::vector<net::NodeId> peers,
                               Ledger::Options opts) {
  ledger_peer_.emplace(key_, opts);
  ledger_peer_->bootstrap(domain, std::move(peers));
}

std::optional<std::string> MemberNode::renew_certificate(
    net::Transport& sim, std::uint64_t valid_until) {
  if (!ledger_peer_ || !token_) return std::nullopt;
  CertPayload cert;
  cert.subject = pseudonym();
  cert.subject_n = key_.public_key().n;
  cert.subject_e = key_.public_key().e;
  cert.ca_token = *token_;
  cert.valid_until = valid_until;
  return publish_certificate(*ledger_peer_, sim, id(), RecordKind::CertRenew,
                             cert);
}

std::optional<std::string> MemberNode::revoke_certificate(
    net::Transport& sim, const std::string& subject) {
  if (!ledger_peer_) return std::nullopt;
  CertPayload cert;
  cert.subject = subject;  // revocations carry no token or key material
  return publish_certificate(*ledger_peer_, sim, id(), RecordKind::CertRevoke,
                             cert);
}

void MemberNode::invite(net::Transport& sim, net::NodeId candidate,
                        const std::string& terms, JoinCallback done) {
  if (!has_authority_ && !allow_misconduct_) {
    if (done) done(false);
    return;
  }
  SessionId session = (static_cast<SessionId>(id()) << 32) | next_session_++;
  pending_invites_[session] = PendingInvite{terms, std::move(done)};
  net::Writer w;
  w.u64(session);
  w.str(terms);
  sim.send(id(), candidate, kPolicyProposal, std::move(w).take());
}

void MemberNode::handle_policy_proposal(net::Transport& sim,
                                        const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::string terms = r.str();
  r.expect_end();
  if (!token_) return;  // cannot commit without a CA token
  // Phase 2: service commitment with token and pseudonym key.
  net::Writer w;
  w.u64(session);
  w.str("commit:" + terms);
  w.big(*token_);
  w.big(key_.public_key().n);
  w.big(key_.public_key().e);
  sim.send(id(), msg.src, kServiceCommitment, std::move(w).take());
}

void MemberNode::handle_service_commitment(net::Transport& sim,
                                           const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::string services = r.str();
  bn::BigUInt token = r.big();
  crypto::RsaPublicKey invitee_pub{r.big(), r.big()};
  r.expect_end();

  auto it = pending_invites_.find(session);
  if (it == pending_invites_.end()) return;
  PendingInvite invite = std::move(it->second);
  pending_invites_.erase(it);

  std::string invitee = pseudonym_hash(invitee_pub);
  bool token_ok =
      ca_pub_.has_value() && ca_pub_->verify(token_message(invitee), token);
  if (!token_ok) {
    if (invite.done) invite.done(false);
    return;
  }
  // Phase 3: mint the evidence piece on top of the chain as it stood when
  // this node gained the invite authority, and hand over chain + authority.
  // An honest node does this once; a misbehaving node reuses the snapshot
  // and produces a fork (same issuer, same predecessor) — the undeniable
  // double-invite evidence.
  std::string prev_hash = chain_at_authority_.empty()
                              ? ""
                              : chain_at_authority_.pieces().back().hash();
  EvidencePiece piece = make_evidence_piece(
      static_cast<std::uint32_t>(chain_at_authority_.size()), prev_hash, key_,
      invitee, token, invite.terms + "|" + services);
  EvidenceChain granted = chain_at_authority_;
  granted.append(piece);
  chain_ = granted;
  has_authority_ = false;  // authority passes to the invitee

  net::Writer w;
  w.u64(session);
  w.vec(granted.pieces(), [](net::Writer& out, const EvidencePiece& p) {
    p.encode(out);
  });
  sim.send(id(), msg.src, kEvidenceGrant, std::move(w).take());
  if (invite.done) invite.done(true);
  if (ledger_peer_) {
    // The minted piece and the invitee's fresh certificate become ledger
    // records, so the join survives even if the (linear) chain's future
    // holders misbehave — settlement needs foreign endorsements.
    publish_evidence(*ledger_peer_, sim, id(), piece);
    CertPayload cert;
    cert.subject = invitee;
    cert.subject_n = invitee_pub.n;
    cert.subject_e = invitee_pub.e;
    cert.ca_token = token;
    publish_certificate(*ledger_peer_, sim, id(), RecordKind::CertIssue, cert);
  }
}

void MemberNode::handle_evidence_grant(net::Transport&,
                                       const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  auto pieces = r.vec<EvidencePiece>(
      [](net::Reader& in) { return EvidencePiece::decode(in); });
  r.expect_end();
  // At-least-once dedup: the grant hands over the invite authority and
  // fires on_joined — a chaos-duplicated copy must not re-run either (the
  // authority may already have been passed on to our own invitee).
  if (grant_sessions_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }
  EvidenceChain chain;
  for (auto& piece : pieces) chain.append(std::move(piece));
  // Accept the chain only if it verifies and its tail names us.
  if (ca_pub_.has_value()) {
    auto verification = chain.verify(*ca_pub_);
    if (!verification.ok) {
      // Keep the offending pieces: they are undeniable proof of the
      // issuer's misconduct (e.g. a double invite).
      for (const auto& piece : chain.pieces()) {
        suspicious_pieces_.push_back(piece);
      }
      return;
    }
  }
  if (chain.empty() || chain.pieces().back().invitee_pseudonym != pseudonym())
    return;
  chain_ = std::move(chain);
  chain_at_authority_ = chain_;
  has_authority_ = true;
  ++joins_completed_;
  if (on_joined) on_joined(chain_);
}

void MemberNode::on_message(net::Transport& sim, const net::Message& msg) {
  try {
    switch (msg.type) {
      case kTokenReply: return handle_token_reply(sim, msg);
      case kPolicyProposal: return handle_policy_proposal(sim, msg);
      case kServiceCommitment: return handle_service_commitment(sim, msg);
      case kEvidenceGrant: return handle_evidence_grant(sim, msg);
      case kLedgerAppend:
        if (ledger_peer_) ledger_peer_->handle_append(sim, id(), msg);
        return;
      case kLedgerTailsRequest:
        if (ledger_peer_) ledger_peer_->handle_tails_request(sim, id(), msg);
        return;
      // Membership-protocol edge actor: it only ever receives the handshake
      // replies and ledger frames above; cluster-internal traffic is never
      // addressed to it.
      // DLA-LINT-ALLOW(msgtype-switch): edge actor, handshake-reply subset
      default:
        break;
    }
  } catch (const net::CodecError&) {
    // Malformed handshake replies are dropped, not fatal.
    ++detail::wire_reject_counters_mut().codec_rejects;
  }
}

}  // namespace dla::audit
