// Layer microbenchmarks: timed calls into single public functions at the
// widths and sizes the workloads use (256-bit moduli, 64-element ring
// chunks, ring-chunk-sized frames, the durable engine's options). Each
// figure is the median of several timed repeats.
#include <filesystem>
#include <span>
#include <unistd.h>

#include "bench.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/accumulator.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "crypto/rng.hpp"
#include "crypto/threshold_schnorr.hpp"
#include "logm/storage_engine.hpp"
#include "net/frame.hpp"

namespace pb {

namespace {

using dla::bn::BigUInt;

// Median over `repeats` of (elapsed / iterations) in nanoseconds.
template <typename F>
double time_ns(int repeats, int iterations, F&& body) {
  std::vector<double> per;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iterations; ++i) body(i);
    per.push_back(ms_between(t0, Clock::now()) * 1e6 / iterations);
  }
  return median(per);
}

volatile std::uint64_t g_sink = 0;  // keeps results observable

void bignum_figures(LayerFigures& f) {
  const auto domain = dla::crypto::PhDomain::fixed256();
  dla::bn::MontgomeryContext ctx(domain.p);
  dla::crypto::ChaCha20Rng rng(7);
  auto a = ctx.to_mont(BigUInt::random_below(rng, domain.p));
  const auto b = ctx.to_mont(BigUInt::random_below(rng, domain.p));
  std::vector<std::uint64_t> scratch(ctx.scratch_limbs());
  f.values["bignum.mont_mul_ns"] = time_ns(5, 200000, [&](int) {
    ctx.mont_mul_raw(a.data(), b.data(), a.data(), scratch.data());
  });
  f.values["bignum.mont_sqr_ns"] = time_ns(5, 200000, [&](int) {
    ctx.mont_sqr_raw(a.data(), a.data(), scratch.data());
  });
  g_sink = g_sink + a[0];

  std::vector<BigUInt> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(BigUInt::random_below(rng, domain.p));
  f.values["bignum.modinv_us"] = time_ns(5, 400, [&](int i) {
    auto inv = BigUInt::modinv(xs[i % xs.size()], domain.p);
    g_sink = g_sink + (inv ? 1 : 0);
  }) / 1000.0;
  f.values["bignum.bytes_roundtrip_ns"] = time_ns(5, 50000, [&](int i) {
    const BigUInt v = BigUInt::from_bytes(xs[i % xs.size()].to_bytes());
    g_sink = g_sink + v.to_bytes().size();
  }) / 2.0;  // from_bytes + to_bytes of the copy: two conversions per pass
}

void crypto_figures(LayerFigures& f) {
  dla::crypto::ChaCha20Rng rng(11);
  dla::crypto::Accumulator acc(dla::crypto::Accumulator::Params::fixed256());
  Gen g(5);
  std::vector<std::string> items;
  for (int i = 0; i < 64; ++i) {
    dla::logm::Fragment frag;
    frag.glsn = 0x139aef78 + i;
    const Row r = g.row();
    frag.attrs = {{"Time", dla::logm::Value(r.time)},
                  {"C1", dla::logm::Value(r.c1)}};
    items.push_back(frag.canonical());
  }
  f.values["crypto.accumulator_add_us"] = time_ns(5, 200, [&](int i) {
    acc.add(items[i % items.size()]);
  }) / 1000.0;

  const auto domain = dla::crypto::PhDomain::fixed256();
  const auto key = dla::crypto::PhKey::generate(domain, rng);
  std::vector<BigUInt> chunk;
  for (int i = 0; i < 64; ++i) {
    chunk.push_back(dla::crypto::encode_element(domain, items[i]));
  }
  f.values["crypto.ring_encrypt_us_per_elem"] =
      time_ns(5, 20, [&](int) {
        key.encrypt_batch(std::span<BigUInt>(chunk));
      }) / 1000.0 / 64.0;
  f.values["crypto.ph_keygen_us"] = time_ns(5, 40, [&](int) {
    auto k = dla::crypto::PhKey::generate(domain, rng);
    g_sink = g_sink + k.p().to_bytes().size();
  }) / 1000.0;

  // One 3-of-4 threshold Schnorr signature through the public functions,
  // verified.
  const auto dealing = dla::crypto::deal_threshold_key(rng, 3, 4);
  const auto& P = dealing.params;
  const std::vector<std::uint32_t> signers = {1, 2, 3};
  f.values["crypto.threshold_sign_us"] = time_ns(5, 20, [&](int i) {
    const std::string msg = "report " + std::to_string(i);
    std::vector<dla::crypto::NoncePair> nonces;
    std::vector<BigUInt> rs;
    for (int s = 0; s < 3; ++s) {
      nonces.push_back(dla::crypto::make_nonce(P, rng));
      rs.push_back(nonces.back().r);
    }
    const BigUInt R = dla::crypto::combine_commitments(P, rs);
    const BigUInt c = dla::crypto::challenge(P, R, msg);
    std::vector<BigUInt> shares;
    for (int s = 0; s < 3; ++s) {
      const auto& share = dealing.shares[signers[s] - 1];
      shares.push_back(dla::crypto::response_share(
          P, share, nonces[s].k, c,
          dla::crypto::lagrange_at_zero(P, signers, signers[s])));
    }
    const auto sig = dla::crypto::combine_signature(P, R, shares);
    if (!dla::crypto::verify_threshold(P, msg, sig)) {
      throw std::runtime_error("threshold signature did not verify");
    }
  }) / 1000.0;
}

void net_figures(LayerFigures& f) {
  // A 64-element ring chunk of 33-byte elements, as kSetRing carries.
  dla::net::Message msg{1, 2, 0x32, dla::net::Bytes(64 * 33 + 24, 0x5a)};
  const std::size_t frame_bytes = dla::net::encode_frame(msg).size();
  std::vector<dla::net::Message> out;
  dla::net::FrameParser parser;
  f.values["net.frame_ns_per_kb"] =
      time_ns(5, 5000, [&](int) {
        const dla::net::Bytes wire = dla::net::encode_frame(msg);
        parser.feed(wire, out);
        out.clear();
      }) * 1024.0 / frame_bytes;
}

// Replays a seeded fragment stream into a standalone segment engine with the
// ingest workload's options, sealing and compacting by hand so each call is
// timed on its own.
void logm_figures(LayerFigures& f, const std::string& scratch) {
  const std::string dir =
      scratch + "/logm-replay-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::vector<double> put_us, seal_ms, compact_ms;
  {
    dla::logm::SegmentEngine::Options opt;
    opt.memtable_max_records = 0;  // manual seals
    opt.compaction_fanout = 4;
    opt.auto_compact = false;
    opt.sync_mode = dla::logm::SegmentEngine::SyncMode::OnSeal;
    dla::logm::SegmentEngine engine(dir, opt);
    Gen g(3);
    for (int i = 0; i < 4096; ++i) {
      const Row r = g.row();
      dla::logm::Fragment frag;
      frag.glsn = 0x139aef78 + i;
      frag.attrs = {{"protocl", dla::logm::Value(r.proto)},
                    {"C1", dla::logm::Value(r.c1)}};
      auto t0 = Clock::now();
      engine.put(std::move(frag));
      put_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
      if ((i + 1) % 256 == 0) {
        t0 = Clock::now();
        engine.seal();
        seal_ms.push_back(ms_between(t0, Clock::now()));
        t0 = Clock::now();
        if (engine.compact() > 0) {
          compact_ms.push_back(ms_between(t0, Clock::now()));
        }
      }
    }
  }
  std::filesystem::remove_all(dir, ec);
  f.values["logm.put_us"] = median(put_us);
  f.values["logm.seal_ms"] = median(seal_ms);
  f.values["logm.compact_ms"] = median(compact_ms);
}

}  // namespace

void run_microbenches(LayerFigures& out, const std::string& scratch) {
  bignum_figures(out);
  crypto_figures(out);
  net_figures(out);
  logm_figures(out, scratch);
}

}  // namespace pb
